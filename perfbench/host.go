package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host is the fingerprint printed with every result.
type host struct {
	CPU        string `json:"cpu"`
	VCPUs      int    `json:"vcpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// Commit is the git commit when the checkout is a repository;
	// otherwise "tree:" plus a SHA-256 over the Go sources and module
	// files measured.
	Commit string `json:"commit"`
}

func fingerprint(root string) host {
	h := host{
		CPU:        cpuModel(),
		VCPUs:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.Commit = commitOf(root)
	return h
}

// cpuTicks reads the host's aggregate CPU ticks from /proc/stat: the
// hypervisor's steal and the total. Steal is time the vCPUs were ready to
// run but the host ran something else; it slows every timing of a run.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commitOf(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	// Never let git search above the checkout for a repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	sum, err := treeHash(root)
	if err != nil {
		return "unknown"
	}
	return "tree:" + sum
}

// treeHash digests every .go, go.mod and go.sum file under root (build
// output excluded), path and content, in sorted path order.
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		n := d.Name()
		if !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}
