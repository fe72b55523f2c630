package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// child is a started helper process (avgserve or avgworker).
type child struct {
	name string
	cmd  *exec.Cmd
	done chan error
	log  *os.File
}

// startChild starts bin/name with args, logging its output under out/logs.
func startChild(c *config, name string, args ...string) (*child, error) {
	dir := filepath.Join(c.out, "logs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%s-s%d.log", c.workload, name, c.seed)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(c.bin, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	ch := &child{name: name, cmd: cmd, done: make(chan error, 1), log: logf}
	go func() { ch.done <- cmd.Wait() }()
	return ch, nil
}

// stop asks the child to drain (SIGTERM), kills it if it has not exited
// within the grace period, and waits until it has ended.
func (ch *child) stop(grace time.Duration) {
	if ch == nil {
		return
	}
	ch.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-ch.done:
	case <-time.After(grace):
		ch.cmd.Process.Kill()
		<-ch.done
	}
	ch.log.Close()
}

// exited reports whether the child has already ended.
func (ch *child) exited() bool {
	select {
	case err := <-ch.done:
		ch.done <- err
		return true
	default:
		return false
	}
}

// cpuSeconds reads the child's user+system CPU time from /proc.
func (ch *child) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", ch.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// peakRSSMB reads the child's peak resident set (VmHWM) from /proc.
func (ch *child) peakRSSMB() float64 { return vmHWM(strconv.Itoa(ch.cmd.Process.Pid)) }

// vmHWM reads the peak resident set (MB) of /proc/<pid>.
func vmHWM(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runChild runs a command to completion.
func runChild(name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
