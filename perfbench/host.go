package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostFingerprint identifies where and on what code a result was measured:
// CPU model, nproc, GOMAXPROCS, Go version and commit. A checkout without
// version-control metadata has no commit; the hash of the Go sources stands
// in for it. Results are compared only between equal hosts.
func hostFingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		commit(), sourceHash())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the revision the binary was built from, with "+dirty" for a
// modified tree, or "none" when the build carried no version-control data.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceHash is a short SHA-256 over every Go source and go.mod of the
// module the benchmark builds against, in path order. Build outputs under
// dot-directories are skipped.
func sourceHash() string {
	root, err := repoRoot()
	if err != nil {
		return "unknown"
	}
	var files []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// repoRoot finds the directory holding the engine module's go.mod: the
// working directory when run from the checkout root, its parent when run
// from the benchmark's own directory (as its tests are).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no go.mod for module repro in . or ..")
}
