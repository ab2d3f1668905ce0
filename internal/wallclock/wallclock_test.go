package wallclock

import (
	"testing"
	"time"
)

func TestClock(t *testing.T) {
	c := Clock{}
	start := time.Now()
	select {
	case <-c.After(2 * time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Error("After fired early")
	}
}
