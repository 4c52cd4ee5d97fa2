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
	"runtime/debug"
	"strings"

	"chaffmec/internal/rng"
)

// fingerprint is the host and provenance stamp carried by every
// artifact: two artifacts are comparable only when these agree (or the
// comparison says why they need not).
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Stream     string `json:"rng_stream"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw one; Source hashes the Go sources and module files of
	// the checkout, which identifies the code when there is no VCS.
	Commit  string  `json:"commit"`
	Source  string  `json:"source_sha256"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
}

func takeFingerprint(o options) fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Stream:     rng.StreamVersion,
		Commit:     "unknown",
		Source:     sourceHash("."),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				fp.GOAMD64 = s.Value
			case "vcs.revision":
				fp.Commit = s.Value
			}
		}
	}
	if fp.GOARCH == "amd64" && fp.GOAMD64 == "" {
		fp.GOAMD64 = "v1" // the toolchain default, not recorded in build info
	}
	return fp
}

// cpuModel reads the processor name the kernel reports.
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

// sourceHash hashes the path and content of every .go, go.mod and go.sum
// file under root, skipping hidden directories (build outputs, VCS).
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
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
