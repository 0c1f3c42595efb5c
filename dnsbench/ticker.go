package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker wakes its goroutine every period through a timerfd watched by
// the runtime's network poller: wakeups are microsecond-precise and hold
// no thread while waiting. The runtime's own timers round sub-millisecond
// waits up to a whole millisecond on Linux, which would dominate the
// open-loop latencies. A ticker fires on multiples of period on the
// monotonic clock.
type ticker struct {
	f   *os.File
	buf [8]byte
}

const clockMonotonic = 1

// monotonicNow reads CLOCK_MONOTONIC, the clock the ticker's grid is on.
func monotonicNow() (int64, error) {
	var now syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic,
		uintptr(unsafe.Pointer(&now)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return now.Nano(), nil
}

// newTicker returns a ticker firing at each multiple of period, and its
// first tick on CLOCK_MONOTONIC.
func newTicker(period time.Duration) (*ticker, int64, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, 0, fmt.Errorf("timerfd_create: %w", errno)
	}
	now, err := monotonicNow()
	if err != nil {
		syscall.Close(int(fd))
		return nil, 0, err
	}
	p := int64(period)
	first := (now/p + 1) * p
	const absTime = 1                                                                     // TFD_TIMER_ABSTIME
	spec := [2]syscall.Timespec{syscall.NsecToTimespec(p), syscall.NsecToTimespec(first)} // it_interval, it_value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, absTime,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, 0, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd")}, first, nil
}

// wait blocks until the next expiry.
func (t *ticker) wait() error {
	_, err := t.f.Read(t.buf[:])
	return err
}

func (t *ticker) close() { t.f.Close() }
