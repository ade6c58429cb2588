package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/obs"
)

// readChunks reads every chunk of every chunk store under dir with
// Store.ReadChunk (read plus decode, no block cache attached) and hands fn
// each chunk's entries and read time.
func readChunks(ctx context.Context, dir string, fn func(entries []chunkstore.Entry, took time.Duration)) error {
	return filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || e.Name() != "manifest.json" {
			return err
		}
		st, err := chunkstore.Open(filepath.Dir(p), nil)
		if err != nil {
			return err
		}
		for _, chunks := range st.Manifest().Chunks {
			for _, m := range chunks {
				t0 := time.Now()
				entries, err := st.ReadChunk(ctx, m)
				if err != nil {
					return err
				}
				fn(entries, time.Since(t0))
			}
		}
		return nil
	})
}

// chunkDecode times Store.ReadChunk over every chunk under dir, in µs.
func chunkDecode(ctx context.Context, dir string) (*dist, error) {
	d := &dist{}
	err := readChunks(ctx, dir, func(_ []chunkstore.Entry, took time.Duration) {
		d.add(float64(took) / float64(time.Microsecond))
	})
	return d, err
}

// decodedBytes is the block-cache footprint of every chunk under dir
// decoded at once: the sum of chunkstore.DecodedEntriesBytes, which is what
// the cache charges per resident chunk.
func decodedBytes(ctx context.Context, dir string) (int64, error) {
	var n int64
	err := readChunks(ctx, dir, func(entries []chunkstore.Entry, _ time.Duration) {
		n += chunkstore.DecodedEntriesBytes(entries)
	})
	return n, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// userBytes is the raw payload of n rows: one float64 per dimension.
func userBytes(n, dims int) float64 { return float64(n) * float64(dims) * 8 }

// streamFigures are the stream layer's per-layer metrics.
type streamFigures struct {
	appends            *dist
	flushes, compacts  float64
	spaceAmp, writeAmp float64
	// source says where the figures came from.
	source string
}

// probeDuration is how long the stream probe appends.
const probeDuration = 3 * time.Second

// streamProbe measures the stream layer where the served workload does
// not use it (static layouts): it builds a live copy of the store with the
// workload's shard count and appends ingest-mixed's paced batches into it
// in process for probeDuration.
func streamProbe(ctx context.Context, dir string, w workload, ds *dataset.Dataset, seed int64) (streamFigures, error) {
	ing, err := workloadNamed("ingest-mixed")
	if err != nil {
		return streamFigures{}, err
	}
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 64 << 10, Shards: w.shards, LiveIngest: true}); err != nil {
		return streamFigures{}, err
	}
	reg := obs.NewRegistry()
	idx, err := core.Open(ctx, dir, core.Options{
		MemoryBudgetBytes: w.budget, Registry: reg, Shards: w.shards,
		LiveIngest: true, FlushInterval: ing.flushEvery,
	})
	if err != nil {
		return streamFigures{}, err
	}
	// An unreadable /proc/self/io only leaves stream.write_amp at 0.
	wb0, _ := procField(os.Getpid(), "io", "write_bytes")
	f := streamFigures{appends: &dist{}, source: "in-process probe on a live copy"}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- appendLoop(ctx, idx, ds, ing, seed, stop, f.appends) }()
	time.Sleep(probeDuration)
	close(stop)
	if err := <-done; err != nil {
		idx.Close()
		return streamFigures{}, err
	}
	idx.Close()
	wb1, _ := procField(os.Getpid(), "io", "write_bytes")
	appended := f.appends.n() * ing.appendBatch
	f.flushes = float64(reg.Counter("stream_flush_total").Value())
	f.compacts = float64(reg.Counter("stream_compact_total").Value())
	f.writeAmp = float64(wb1-wb0) / userBytes(appended, ds.Dims())
	size, err := dirBytes(dir)
	if err != nil {
		return streamFigures{}, err
	}
	f.spaceAmp = float64(size) / userBytes(w.rows+appended, ds.Dims())
	return f, nil
}
