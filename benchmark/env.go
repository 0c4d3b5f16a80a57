package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is recorded in every results file: two result sets are only
// comparable when these agree.
type environment struct {
	NProc     int    `json:"nproc"`
	LoadAvg   string `json:"load_avg"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

func readEnvironment(root string) environment {
	env := environment{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), LoadAvg: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			env.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	// A checkout that is not a git repository (the driver's) has no commit.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
