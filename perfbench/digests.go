package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// digestsPath holds the pinned digests, relative to the repository root
// the benchmark runs from.
const digestsPath = "perfbench/digests.json"

// pinnedDigests maps workload -> seed -> the digest of every simulated
// statistic one pass produced at the commit that pinned it.
type pinnedDigests map[string]map[string]string

func loadDigests(path string) (pinnedDigests, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return pinnedDigests{}, nil
	}
	if err != nil {
		return nil, err
	}
	var d pinnedDigests
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// checkDigest compares this run's digest with the pinned one for its
// workload and seed, or pins it. A differing digest is reported, not
// failed: it says the simulated results changed, which a change to the
// model does on purpose and a speed-only change must not.
func (b *bench) checkDigest(path string, pin bool) {
	d, err := loadDigests(path)
	if err != nil {
		b.problem("digests: %v", err)
		return
	}
	seed := strconv.FormatUint(b.seed, 10)
	want, ok := d[b.workload][seed]
	switch {
	case pin:
		if d[b.workload] == nil {
			d[b.workload] = map[string]string{}
		}
		d[b.workload][seed] = b.digest
		data, err := json.MarshalIndent(d, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			b.problem("pinning digest: %v", err)
		}
		b.note("simulated-statistics digest: %s (pinned)", b.digest)
	case !ok:
		b.note("simulated-statistics digest: %s (no pinned digest for seed %s)", b.digest, seed)
	case want == b.digest:
		b.note("simulated-statistics digest: %s (matches the pinned digest)", b.digest)
	default:
		b.note("simulated-statistics digest: %s DIFFERS from the pinned %s: the simulated statistics changed", b.digest, want)
	}
}
