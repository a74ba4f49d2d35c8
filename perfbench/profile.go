package main

// Per-stage CPU shares of the cycle loop, from a CPU profile taken around
// a traced pass. The stages are unexported methods of core.Core, so no
// span can reach them from outside the program; the profile can. The
// shares are profile-sampled (about 100 samples per CPU-second), not
// timed.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// stageNames are the cycle-loop stages reported as core.stage.*.
var stageNames = []string{"fetch", "allocate", "issue", "complete", "retire", "skip"}

// stageOf maps the functions core.(*Core).Cycle calls to the stage they
// belong to. Anything else Cycle calls, and Cycle's own body, is "other".
var stageOf = map[string]string{
	"cdf/internal/core.(*Core).fetch":               "fetch",
	"cdf/internal/core.(*Core).allocate":            "allocate",
	"cdf/internal/core.(*Core).issueFast":           "issue",
	"cdf/internal/core.(*Core).issue":               "issue",
	"cdf/internal/core.(*Core).processMemViolation": "issue",
	"cdf/internal/core.(*Core).complete":            "complete",
	"cdf/internal/core.(*Core).retire":              "retire",
	"cdf/internal/core.(*Core).trySkip":             "skip",
	"cdf/internal/core.(*Core).sig":                 "skip",
	"cdf/internal/core.(*Core).partSnaps":           "skip",
	"cdf/internal/core.(*Core).skipEligible":        "skip",
}

const cycleFunc = "cdf/internal/core.(*Core).Cycle"

// cloneFunc is the emulator checkpoint copy whose profile share the
// sampled workload cross-checks against its Clone spans.
const cloneFunc = "cdf/internal/emu.(*Emulator).Clone"

// stageProfile accumulates stage sample counts over one or more profiles.
type stageProfile struct {
	cycle  int64            // samples with Core.Cycle on the stack
	stages map[string]int64 // of those, samples by stage
	// clone counts, per profiled label, the samples with Emulator.Clone
	// on the stack and all samples.
	clone map[string][2]int64
	buf   bytes.Buffer
}

func (sp *stageProfile) start() error {
	sp.buf.Reset()
	return pprof.StartCPUProfile(&sp.buf)
}

// stop ends the current profile and folds its samples in under label.
func (sp *stageProfile) stop(label string) error {
	pprof.StopCPUProfile()
	samples, err := parseProfile(sp.buf.Bytes())
	if err != nil {
		return err
	}
	if sp.stages == nil {
		sp.stages, sp.clone = map[string]int64{}, map[string][2]int64{}
	}
	for _, s := range samples {
		cl := sp.clone[label]
		cl[1] += s.count
		for _, fn := range s.stack {
			if fn == cloneFunc {
				cl[0] += s.count
				break
			}
		}
		sp.clone[label] = cl
		for i, fn := range s.stack {
			if fn != cycleFunc {
				continue
			}
			sp.cycle += s.count
			if i > 0 {
				if st, ok := stageOf[s.stack[i-1]]; ok {
					sp.stages[st] += s.count
				}
			}
			break
		}
	}
	return nil
}

// report sets core.stage.<stage>.cpu_share: the stage's share of the
// samples inside Core.Cycle.
func (sp *stageProfile) report(b *bench) {
	if sp.cycle == 0 {
		return
	}
	var other int64 = sp.cycle
	for _, st := range stageNames {
		b.set("core.stage."+st+".cpu_share", float64(sp.stages[st])/float64(sp.cycle))
		other -= sp.stages[st]
	}
	b.note("cycle-loop stages (profile-sampled, %d samples in Core.Cycle; %.3f elsewhere in Cycle)",
		sp.cycle, float64(other)/float64(sp.cycle))
}

// profSample is one profile sample: its function stack, innermost first,
// with inlined frames expanded, and its sample count.
type profSample struct {
	stack []string
	count int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping only what stage attribution needs.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: s.values[0]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either as one value
// or packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
