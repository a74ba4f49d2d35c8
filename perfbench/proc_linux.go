package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// prSetChildSubreaper is prctl's PR_SET_CHILD_SUBREAPER.
const prSetChildSubreaper = 36

// becomeSubreaper makes this process the parent of any descendant orphaned
// by its own parent's exit — the service's workers when the service exits
// before them — so reapGroup can wait for them.
func becomeSubreaper() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// reapGroup waits until every process left in process group pgid, whose
// leader has already been waited for, has exited and been reaped. It kills
// the group if any member is still running after ten seconds.
func reapGroup(pgid int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-pgid, &ws, syscall.WNOHANG, nil)
		switch {
		case errors.Is(err, syscall.ECHILD):
			return nil
		case errors.Is(err, syscall.EINTR) || pid > 0:
			continue
		case err != nil:
			return fmt.Errorf("reaping process group %d: %w", pgid, err)
		}
		if time.Now().After(deadline) {
			_ = syscall.Kill(-pgid, syscall.SIGKILL) // members that exit meanwhile are fine
			deadline = time.Now().Add(10 * time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitChildrenGone waits until this process has no child process named
// comm left, running or unreaped, killing stragglers after ten seconds.
// The sweepd supervisor reaps its own workers; this waits for it to.
func waitChildrenGone(comm string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		pids := childrenNamed(comm)
		if len(pids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, p := range pids {
				_ = syscall.Kill(p, syscall.SIGKILL) // may have exited meanwhile
			}
			deadline = time.Now().Add(10 * time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// childrenNamed lists this process's children whose command name is comm.
func childrenNamed(comm string) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := os.Getpid()
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		// "pid (comm) state ppid ..."; comm may hold spaces, so split at
		// the last parenthesis.
		s := string(stat)
		open, shut := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		if open < 0 || shut < open {
			continue
		}
		f := strings.Fields(s[shut+1:])
		if len(f) < 2 || s[open+1:shut] != comm {
			continue
		}
		if ppid, err := strconv.Atoi(f[1]); err == nil && ppid == self {
			out = append(out, pid)
		}
	}
	return out
}
