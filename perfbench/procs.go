package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running ktpmd.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// freeAddrs reserves n distinct loopback ports for servers about to
// start. Every listener is held until all n are chosen, so no two
// servers of one fleet are handed the same port.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startKtpmd launches bin listening on addr, with args plus
// -concurrency 2, logging to logf.
func startKtpmd(bin, addr string, logf *os.File, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-concurrency", "2"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A load generator that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(p.done) }()
	return p, nil
}

// stop asks the process to drain and exit, kills it if it has not
// exited within 10s, and waits for it either way.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// fleet is the set of processes serving one workload; front answers
// /query.
type fleet struct {
	procs []*proc
	front *proc
}

func (f *fleet) stop() {
	// Coordinator first, so it never sees its workers vanish mid-query.
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func (f *fleet) exited() bool {
	for _, p := range f.procs {
		if p.exited() {
			return true
		}
	}
	return false
}

// diskMB is the size in MiB of the given files and of every file below
// the given directories.
func diskMB(paths ...string) (float64, error) {
	var total int64
	for _, root := range paths {
		err := filepath.Walk(root, func(_ string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / (1 << 20), nil
}
