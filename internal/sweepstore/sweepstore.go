// Package sweepstore makes sweeps crash-safe. It provides the durability
// layer under cdf's suite experiments: an append-only, fsync'd journal of
// sweep progress (one checksummed record per completed or failed case,
// recoverable after a kill at any byte boundary), a content-addressed
// result cache keyed by a stable hash of (case, machine configuration,
// code version) with integrity verification on read, the capped
// exponential backoff policy that drives retry of transient failures, and
// the per-case circuit breaker.
//
// The contract with callers (cdf.ExecCase, the CLIs):
//
//   - Every completed case is written to the cache and journaled *before*
//     the sweep moves on, so a SIGKILL at any point loses at most the
//     cases still in flight.
//   - A cache entry is served only when its embedded key, code version,
//     and payload checksum all verify; corrupt, truncated, or stale
//     entries are misses and the case is re-simulated — a damaged store
//     can cost time, never correctness.
//   - The journal is advisory metadata (sweep seed, progress, failure
//     record); results themselves live in the cache, addressed purely by
//     content, so replaying a journal is never required for correctness.
package sweepstore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
)

// Store bundles the journal and the result cache rooted at one directory:
//
//	<dir>/journal.log      append-only progress journal
//	<dir>/objects/xx/<key> content-addressed result entries
type Store struct {
	dir     string
	lock    *fileLock
	journal *Journal
	cache   *Cache

	// CorruptPut, when non-nil, is consulted on every cache write; when it
	// reports true the entry's payload is flipped after checksumming, so
	// the write lands corrupt on disk. It exists for the chaos harness and
	// integrity tests — reads detect the damage and treat it as a miss.
	CorruptPut func() bool

	hits, misses, puts, retries atomic.Int64
}

// Stats counts cache traffic for one Store since Open.
type Stats struct {
	Hits    int64 // verified cache entries served
	Misses  int64 // lookups that fell through to simulation
	Puts    int64 // entries written
	Retries int64 // retry attempts consumed by transient failures
}

// Open opens (creating if needed) the store rooted at dir. With resume
// set, an existing journal is recovered — torn trailing writes are
// truncated away — and its records are available via Meta and Cases;
// without it, any existing journal is discarded and the sweep starts a
// fresh one. The cache is content-addressed and survives either way.
//
// Open takes an exclusive advisory flock on <dir>/LOCK for the life of
// the Store: a server and a concurrently-run CLI sweep on the same
// directory would interleave corrupt journal appends, so the second
// writer fails immediately with an error matching ErrLocked. The lock
// dies with the process (the kernel releases it on the last close), so a
// SIGKILL'd writer never leaves the store wedged.
func Open(dir string, resume bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	j, err := OpenJournal(filepath.Join(dir, "journal.log"), resume)
	if err != nil {
		lock.release()
		return nil, err
	}
	return &Store{dir: dir, lock: lock, journal: j, cache: &Cache{dir: filepath.Join(dir, "objects")}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Meta returns the journal's meta record (sweep seed and run length),
// when one was recovered or appended.
func (s *Store) Meta() (Record, bool) { return s.journal.meta() }

// SetMeta journals the sweep-level metadata. It is a no-op when a meta
// record is already present (the resume case).
func (s *Store) SetMeta(rec Record) error {
	rec.Type = RecordMeta
	if _, ok := s.journal.meta(); ok {
		return nil
	}
	return s.journal.Append(rec)
}

// Cases returns the recovered per-case journal records, in append order.
func (s *Store) Cases() []Record { return s.journal.cases() }

// Records returns every journal record — meta, case, and job — in append
// order. The sweep service walks these at startup to rebuild its queue.
func (s *Store) Records() []Record { return s.journal.records() }

// AppendRecord journals an arbitrary record durably (fsync'd before
// return). Callers with their own record types — the sweep service's job
// queue — use this; Put/Fail/SetMeta remain the case-level entry points.
func (s *Store) AppendRecord(rec Record) error {
	if rec.Type == "" {
		return fmt.Errorf("sweepstore: journal record without a type")
	}
	return s.journal.Append(rec)
}

// Get returns the verified payload cached under key. ok is false on any
// miss: absent, unreadable, truncated, checksum mismatch, wrong key, or
// stale code version.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	payload, ok = s.cache.Get(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return payload, ok
}

// Put writes payload under key (atomically: temp file, fsync, rename) and
// journals rec as the case's durable completion record. The journal append
// is fsync'd before Put returns, so a kill immediately after a case
// completes still finds it on resume.
func (s *Store) Put(key string, payload []byte, rec Record) error {
	corrupt := s.CorruptPut != nil && s.CorruptPut()
	if err := s.cache.put(key, payload, corrupt); err != nil {
		return err
	}
	s.puts.Add(1)
	rec.Type = RecordCase
	rec.Key = key
	return s.journal.Append(rec)
}

// Fail journals a case's terminal failure (retry budget exhausted or a
// fail-fast deterministic failure). No cache entry is written.
func (s *Store) Fail(rec Record) error {
	rec.Type = RecordCase
	return s.journal.Append(rec)
}

// NoteRetry counts one retry attempt consumed by a transient failure, so
// end-of-run summaries and the server's /healthz can report retry traffic
// alongside cache traffic.
func (s *Store) NoteRetry() { s.retries.Add(1) }

// Stats returns the cache and retry traffic counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(),
		Retries: s.retries.Load()}
}

// Close fsyncs and closes the journal, then releases the writer lock. The
// store must not be used after.
func (s *Store) Close() error {
	jerr := s.journal.Close()
	lerr := s.lock.release()
	s.lock = nil
	if jerr != nil {
		return jerr
	}
	return lerr
}

// codeVersion identifies the simulator build embedded in cache keys and
// entries: results produced by different code must never satisfy each
// other's lookups. It is the VCS revision (plus a dirty marker) when the
// binary carries one, else a fixed sentinel — development builds without
// VCS stamps still get dedup within the same tree, and CacheFormat bumps
// invalidate across format changes.
var codeVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				rev = st.Value
			case "vcs.modified":
				dirty = st.Value
			}
		}
		if rev != "" {
			if dirty == "true" {
				return rev + "-dirty"
			}
			return rev
		}
	}
	return "unversioned"
}()

// CodeVersion returns the build identity mixed into every cache key.
func CodeVersion() string { return codeVersion }

// SetCodeVersion overrides the build identity. Tests use it to prove that
// version-stale entries are treated as misses; it returns the previous
// value so callers can restore it.
func SetCodeVersion(v string) (prev string) {
	prev = codeVersion
	codeVersion = v
	return prev
}
