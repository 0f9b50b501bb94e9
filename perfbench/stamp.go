package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// runStamp identifies the build and the machine behind a result, so two
// results are only compared when they came from the same code and host
// class.
type runStamp struct {
	Commit       string `json:"commit"`
	Dirty        string `json:"dirty"`
	BinarySHA256 string `json:"binary_sha256"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	Kernel       string `json:"kernel"`
}

func stampRun() runStamp {
	st := runStamp{
		Commit:     "unknown",
		Dirty:      "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     kernel(),
	}
	// The go tool embeds the VCS state when the build tree is a checkout
	// with history; an exported tree carries none and stays "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Dirty = s.Value
			}
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				st.BinarySHA256 = hex.EncodeToString(h.Sum(nil))
			}
			f.Close()
		}
	}
	return st
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	return cString(u.Sysname[:]) + " " + cString(u.Release[:]) + " " + cString(u.Machine[:])
}

// cString reads a NUL-terminated utsname field (int8 or uint8 by
// architecture).
func cString[T int8 | uint8](b []T) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}
