package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running uei-serve child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
	err  error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startServer boots uei-serve over storeDir with the workload's layout.
// The child dies with this process (Pdeathsig) so no run leaves it behind.
func startServer(bin, storeDir, logPath string, w workload, seed int64) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-store", storeDir,
		"-addr", addr,
		"-seed", strconv.FormatInt(seed, 10),
		"-shards", strconv.Itoa(w.shards),
		"-budget", strconv.FormatInt(w.budget, 10),
		"-block-cache-bytes", strconv.FormatInt(w.cacheBytes, 10),
		"-idle-timeout", "0",
		"-snapshot-dir", filepath.Join(filepath.Dir(storeDir), "snapshots"),
	}
	if w.live {
		args = append(args, "-live", "-flush-interval", w.flushEvery.String())
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start uei-serve: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /readyz until the server answers 200.
func (s *serverProc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("uei-serve exited during start: %v (log: %s)", s.err, s.log.Name())
		default:
		}
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("uei-serve not ready after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (s *serverProc) stop() error {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
			s.log.Close()
			return fmt.Errorf("uei-serve did not drain within 30s; killed")
		}
	}
	s.log.Close()
	if s.err != nil {
		return fmt.Errorf("uei-serve: %v (log: %s)", s.err, s.log.Name())
	}
	return nil
}

// procField reads one "Key: value" line of /proc/<pid>/<file> as an
// integer (the first field of the value).
func procField(pid int, file, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("/proc/%d/%s has no %s", pid, file, key)
}

// peakRSSBytes is the server's VmHWM.
func (s *serverProc) peakRSSBytes() (int64, error) {
	kb, err := procField(s.cmd.Process.Pid, "status", "VmHWM")
	return kb << 10, err
}

// writeBytes is the bytes the server has caused to be written to storage.
// (wchar would also count every HTTP response written to a socket.)
func (s *serverProc) writeBytes() (int64, error) {
	return procField(s.cmd.Process.Pid, "io", "write_bytes")
}

// counters scrapes the server's /debug/vars and returns its counters.
func (s *serverProc) counters() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Counters, nil
}
