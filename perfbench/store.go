package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cdf"
	"cdf/internal/sweepstore"
)

// storeProbe caches a workload's own results in a fresh sweepstore.Store,
// timing each call the sweep paths make per case: a Get that misses, the
// Put (cache write plus fsync'd journal record), a Get that hits, and a
// bare journal append like the one inside Put.
func storeProbe(b *bench, parent int, cases []simCase, results []cdf.Result) error {
	dir := filepath.Join(b.workDir, "store-probe")
	st, err := sweepstore.Open(dir, false)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	fail := func(err error) error { return fmt.Errorf("store probe: %w", err) }
	var gets, puts, appends []time.Duration
	for i, c := range cases {
		key, err := cdf.CaseKey(c.bench, c.opt)
		if err != nil {
			return fail(err)
		}
		payload, err := json.Marshal(results[i])
		if err != nil {
			return fail(err)
		}
		rec := sweepstore.Record{Bench: c.bench, Mode: c.opt.Mode.String(), Status: sweepstore.StatusDone, Attempts: 1}
		var hit bool
		var got []byte
		gets = append(gets, timed(b.tr, "sweepstore.Store.Get", parent, c.label, func() { _, hit = st.Get(key) }))
		if hit {
			b.problem("store probe: %s hit in an empty store", c.label)
		}
		puts = append(puts, timed(b.tr, "sweepstore.Store.Put", parent, c.label, func() { err = st.Put(key, payload, rec) }))
		if err != nil {
			return fail(err)
		}
		gets = append(gets, timed(b.tr, "sweepstore.Store.Get", parent, c.label, func() { got, hit = st.Get(key) }))
		if !hit || !bytes.Equal(got, payload) {
			b.problem("store probe: %s did not read back what was written", c.label)
		}
		rec.Type, rec.Key = sweepstore.RecordCase, key
		appends = append(appends, timed(b.tr, "sweepstore.Store.AppendRecord", parent, c.label, func() { err = st.AppendRecord(rec) }))
		if err != nil {
			return fail(err)
		}
	}
	s := st.Stats()
	if err := st.Close(); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	b.set("store.get_ms", durMedian(gets)*1e3)
	b.set("store.put_ms", durMedian(puts)*1e3)
	b.set("store.journal_append_ms", durMedian(appends)*1e3)
	b.set("store.hits", float64(s.Hits))
	b.set("store.misses", float64(s.Misses))
	return nil
}
