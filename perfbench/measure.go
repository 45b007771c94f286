package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
)

// counters accumulates one op's per-layer counts. Campaign workers add to
// it concurrently.
type counters struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounters() *counters { return &counters{m: map[string]float64{}} }

func (c *counters) add(key string, v float64) {
	c.mu.Lock()
	c.m[key] += v
	c.mu.Unlock()
}

func (c *counters) get(key string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// runtimeSample reads the runtime counters the benchmark reports.
type runtimeSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCycles   float64
	gcCPU      float64 // seconds of GC CPU time
	totalCPU   float64 // seconds of CPU time available to the process
	heapBytes  float64 // live + unswept heap objects now
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3), val(4)}
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) at
// the current RSS, so the next read gives the peak of what ran since.
// Where the kernel refuses, VmHWM stays the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reads VmHWM from /proc/self/status; 0 when unavailable.
func peakRSSBytes() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// provenance records where and on what a result was measured.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	InputSeed  uint64 `json:"input_seed"`
}

func collectProvenance(root, commit string, seed, inputSeed uint64) provenance {
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		SourceHash: sourceHash(root),
		Seed:       seed,
		InputSeed:  inputSeed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every Go source and go.mod under root, in path order,
// so a result is tied to the exact tree it measured even where no git
// metadata exists. Hidden directories (.git, the build directory) are
// skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel)
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
