package sweepd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cdf"
)

// FuzzJobSpec feeds arbitrary request bodies through the server's spec
// decoding. Whatever it accepts must expand only to cases that run: every
// case's options pass cdf.Options.Validate and its mode round-trips
// through cdf.ParseMode. normalize must also be idempotent, so a spec the
// journal re-reads after a restart expands to the same cases.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"benchmarks":["astar"],"modes":["cdf"],"max_uops":2000}`,
		`{"modes":["warp"]}`,
		`{"benchmarks":["nope"]}`,
		`not json`,
		`{"max_uops":5000,"warmup_uops":9000}`,
		`{"warmup_uops":200000}`,
		`{"modes":["hybrid","pre"],"seeds":[3,9],"frontend":true,"fdip":true,"shadow_btb":true,"timeout_sec":2.5}`,
		`{"perfect_l1i":true}`,
		`{"seeds":[0]}`,
		`{"unknown":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		for _, name := range spec.Modes {
			m, err := cdf.ParseMode(name)
			if err != nil || m.String() != name {
				t.Fatalf("accepted mode %q does not round-trip: %v, %v", name, m, err)
			}
		}
		for _, c := range spec.cases() {
			if err := c.Opt.Validate(); err != nil {
				t.Fatalf("accepted spec %s expands to invalid case %s: %v", body, c.Bench, err)
			}
			if m, err := cdf.ParseMode(c.Opt.Mode.String()); err != nil || m != c.Opt.Mode {
				t.Fatalf("case mode %v does not round-trip: %v, %v", c.Opt.Mode, m, err)
			}
		}

		// normalize again on a deep copy: it must accept and change nothing.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again JobSpec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatal(err)
		}
		if err := again.normalize(); err != nil {
			t.Fatalf("normalize rejected its own output %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("normalize is not idempotent:\n once  %+v\n twice %+v", spec, again)
		}
	})
}
