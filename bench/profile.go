package main

// CPU samples are read back through the Go toolchain's pprof: `go tool pprof
// -traces` prints every sample's stack as text, leaf first. run.sh builds the
// benchmark with that toolchain, so it is on the PATH wherever the benchmark
// runs.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// cpuSample is one profile sample: its stack (leaf first) as function
// names, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// readCPUProfile saves a runtime/pprof CPU profile to a temporary file and
// reads its samples back with `go tool pprof -traces`.
func readCPUProfile(prof []byte) ([]cpuSample, error) {
	f, err := os.CreateTemp("", "bench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", f.Name())
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(string(out))
}

// traceSeparator opens each sample's block in `go tool pprof -traces`.
const traceSeparator = "-----------+"

// parseTraces reads `go tool pprof -traces -unit=ns` output. After a header,
// each sample is a block opened by a separator line: the sample's label
// lines ("span:  run.jobs"), then its value and leaf frame
// ("10000000ns   pkg.fn"), then one line per caller.
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	var cur *cpuSample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, traceSeparator) {
			if cur != nil && len(cur.stack) > 0 {
				out = append(out, *cur)
			}
			cur = &cpuSample{}
			continue
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if cur == nil || frame == "" {
			continue // the header
		}
		if len(cur.stack) == 0 {
			value, leaf, ok := strings.Cut(frame, "ns ")
			n, err := strconv.ParseInt(value, 10, 64)
			if !ok || err != nil {
				continue // a label line
			}
			cur.nanos = n
			frame = strings.TrimSpace(leaf)
		}
		cur.stack = append(cur.stack, frame)
	}
	if cur != nil && len(cur.stack) > 0 {
		out = append(out, *cur)
	}
	if len(out) == 0 && strings.Contains(text, traceSeparator) {
		return nil, fmt.Errorf("go tool pprof: no samples parsed from %d bytes of traces", len(text))
	}
	return out, nil
}

// pkgOf returns the import path of a profiled function name, e.g.
// "repro/internal/netsim" for "repro/internal/netsim.(*Fabric).Transfer".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isGC reports whether a sample's stack belongs to the garbage collector:
// background mark workers, mutator assists and the sweeper and scavenger.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"):
			return true
		}
	}
	return false
}
