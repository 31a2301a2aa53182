package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/tensor"
)

// environment records the machine and build a result was measured on.
type environment struct {
	CPU        string   `json:"cpu"`
	CPUFlags   []string `json:"cpu_flags"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	SIMD       bool     `json:"simd"`
	Prepack    bool     `json:"prepack"`
	Commit     string   `json:"commit"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
}

func newEnvironment(workload string, seed int64, trace bool) environment {
	model, flags := cpuInfo()
	return environment{
		CPU:        model,
		CPUFlags:   flags,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       tensor.SIMDEnabled(),
		Prepack:    tensor.PrepackEnabled(),
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
}

// commit identifies the measured code: the VCS revision stamped into the
// binary when it was built inside a repository, otherwise a digest of the
// Go sources and module files under the working directory (the checkout
// root), so results from two trees can still be told apart.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
