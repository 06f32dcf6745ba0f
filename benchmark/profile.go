package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer shares. The
// module is stdlib-only, so it decodes the few fields of profile.proto it
// needs by hand: samples (location ids, values), locations (their lines'
// function ids), functions (name index) and the string table.

// Buckets that are not layers of the program.
const (
	bucketGC           = "go.gc_bg"     // background GC workers
	bucketUnattributed = "unattributed" // no repo frame, or the benchmark's own
)

const repoPrefix = "fancy/internal/"

// layerAlias charges packages that have no metrics of their own to the layer
// that calls them on the benchmark's paths.
var layerAlias = map[string]string{
	"reroute": "fleet", // the fleet's reaction path (Fleet.Protect → reroute.App)
}

// cpuLayers are the layers that get a <layer>.cpu_share metric.
var cpuLayers = []string{"sim", "netsim", "tcp", "traffic", "fancy", "wire", "hh",
	"mgmt", "fleet", "verify", "topo", "telemetry"}

// layerOfFunc maps a symbol name to its repo layer, "" if it is not in a repo
// package: "fancy/internal/fancy/tree.(*Hasher).Path" → "fancy".
func layerOfFunc(name string) string {
	if !strings.HasPrefix(name, repoPrefix) {
		return ""
	}
	rest := name[len(repoPrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	if a, ok := layerAlias[rest]; ok {
		return a
	}
	return rest
}

// gcRoots are the entry points of the runtime's background GC goroutines.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// bucketOfStack charges one sample, given its frames leaf first: to the
// innermost frame that belongs to a repo package, so that map, memmove and
// malloc time lands on the layer that called it; else to the background GC
// if the goroutine is one of its workers; else to nobody.
func bucketOfStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	for _, fn := range frames {
		if gcRoots[fn] {
			return bucketGC
		}
	}
	return bucketUnattributed
}

// foldProfile returns each bucket's share of the profile's samples. Layers
// without a cpu_share metric are folded into the unattributed bucket, so the
// shares of cpuLayers, bucketGC and bucketUnattributed sum to 1.
func foldProfile(gz []byte) (map[string]float64, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{bucketGC: true}
	for _, l := range cpuLayers {
		known[l] = true
	}
	weight := make(map[string]float64)
	var total float64
	for _, s := range prof.samples {
		b := bucketOfStack(prof.stack(s))
		if !known[b] {
			b = bucketUnattributed
		}
		weight[b] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	for b := range weight {
		weight[b] /= total
	}
	return weight, nil
}

type profSample struct {
	locs  []uint64
	value int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int      // function id → name index in strings
	strings   []string
}

// stack lists a sample's function names, leaf first, inlined frames expanded.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int)}
	err = eachField(raw, func(num int, val uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := eachField(body, func(num int, val uint64, body []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, val, body)
				case 2:
					values = appendVarints(values, val, body)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds]; weigh by the last.
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(body, func(num int, val uint64, body []byte) error {
				switch num {
				case 1:
					id = val
				case 4: // Line
					return eachField(body, func(num int, val uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(body, func(num int, val uint64, _ []byte) error {
				switch num {
				case 1:
					id = val
				case 2:
					name = val
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = int(name)
		case 6: // string_table
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of one protobuf message: val holds a
// varint or fixed-width value, body a length-delimited one.
func eachField(b []byte, fn func(num int, val uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var val uint64
		var body []byte
		switch wire {
		case 0:
			if val, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			for i := width - 1; i >= 0; i-- {
				val = val<<8 | uint64(b[i])
			}
			b = b[width:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, val, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: packed when body is
// set, a single value otherwise.
func appendVarints(dst []uint64, val uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, val)
	}
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		body = body[n:]
	}
	return dst
}
