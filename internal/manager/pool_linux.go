//go:build linux

package manager

import "syscall"

func init() {
	osYield = func() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
}
