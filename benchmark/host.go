package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is what a result file records about where it was measured, so
// that numbers from a 2-core sandbox are never read as numbers from a
// workstation.
type hostInfo struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	Commit     string   `json:"git_commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			data, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(data))
		}
		h.Caches = append(h.Caches, "L"+read("level")+" "+read("type")+" "+read("size"))
	}
	// A checkout that is not a git repository records "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
