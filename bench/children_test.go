//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the helper process of TestChildrenDieWithTheHarness:
// with BENCH_TEST_HELPER set it plays the harness — starts a child the way
// the harness does, reports its pid, and waits to be killed.
func TestMain(m *testing.M) {
	if dir := os.Getenv("BENCH_TEST_HELPER"); dir != "" {
		stopOnSignal()
		c, err := startChild("sleeper", "sleep", dir, "", "300")
		if err != nil {
			fmt.Println("error", err)
			os.Exit(1)
		}
		fmt.Println("pid", c.cmd.Process.Pid)
		select {}
	}
	os.Exit(m.Run())
}

func alive(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// A killed child the dead helper never reaped is a zombie until init
	// collects it; it holds no port and runs no code.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	return !strings.HasPrefix(strings.TrimSpace(rest), "Z")
}

// However the harness ends — interrupted, terminated, or killed outright
// with no chance to run any code — its children must end with it.
func TestChildrenDieWithTheHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	logDir, err := os.MkdirTemp(outDir, "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(logDir)
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM, syscall.SIGKILL} {
		helper := exec.Command(os.Args[0])
		helper.Env = append(os.Environ(), "BENCH_TEST_HELPER="+logDir)
		out, err := helper.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := helper.Start(); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			t.Fatalf("helper said %q: %v", line, err)
		}
		pid, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "pid ")))
		if err != nil {
			t.Fatalf("helper said %q", line)
		}
		if !alive(pid) {
			t.Fatalf("child %d not running", pid)
		}
		if err := helper.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		_ = helper.Wait()
		deadline := time.Now().Add(3 * time.Second)
		for alive(pid) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if alive(pid) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Errorf("child %d outlived a harness ended by %v", pid, sig)
		}
	}
}
