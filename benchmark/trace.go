package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// traceFile is what a traced run leaves behind next to its CPU profile: one
// span per benchmark→layer call with its self time, and the counters read at
// the same boundaries.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Spans    []tracedSpan      `json:"spans"`
	Counts   map[string]uint64 `json:"counts"`
	Peaks    map[string]uint64 `json:"peaks"`
}

type tracedSpan struct {
	span
	SelfNs int64 `json:"self_ns"`
}

// writeTrace writes <dir>/<workload>.trace.json and <dir>/<workload>.cpu.pprof.
func writeTrace(dir string, r *result, cpuProfile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	p := r.traced
	tf := traceFile{Workload: r.workload, Seed: r.seed, Counts: p.counts, Peaks: p.peaks}
	self := selfTimes(p.spans)
	for i, sp := range p.spans {
		tf.Spans = append(tf.Spans, tracedSpan{span: sp, SelfNs: self[i]})
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, r.workload+".trace.json"), data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, r.workload+".cpu.pprof"), cpuProfile, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
