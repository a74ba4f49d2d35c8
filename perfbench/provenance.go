package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// host fingerprints the machine a result was measured on. Results from
// different hosts are never compared.
type host struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Go     string `json:"go"`
}

// provenance says what was measured, where and when.
type provenance struct {
	Host     host      `json:"host"`
	Commit   string    `json:"commit"` // "none" outside a git work tree
	Dirty    bool      `json:"dirty"`
	Source   string    `json:"source"` // sha256 of the tree's Go sources, so git-less checkouts are identified too
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Started  time.Time `json:"started"`
}

func collectProvenance(b *bench) provenance {
	p := provenance{
		Host: host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			Go: runtime.Version()},
		Commit: "none", Workload: b.workload, Seed: b.seed, Trace: b.traced, Seconds: b.seconds,
		Started: time.Now().UTC(),
	}
	// Only a work tree rooted here identifies this checkout; an enclosing
	// repository's HEAD would not.
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, _ := os.Getwd() // on failure the comparison below fails and the commit stays "none"
	if f := strings.Fields(string(out)); err == nil && len(f) == 2 && f[0] == wd {
		p.Commit = f[1]
		st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
		p.Dirty = err != nil || len(strings.TrimSpace(string(st))) > 0
	}
	p.Source = sourceHash(".")
	return p
}

func (p provenance) String() string {
	b, _ := json.Marshal(p) // plain struct of strings and numbers: cannot fail
	return "provenance: " + string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every .go and go.mod file under root, skipping
// hidden directories (the build output lives in one).
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
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one line of a results file, the comparator's input.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     resultOut  `json:"result"`
}

func appendRecord(path string, p provenance, r resultOut) error {
	line, err := json.Marshal(record{p, r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("results file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("results file: %w", err)
	}
	return f.Close()
}
