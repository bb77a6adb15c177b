package tenant

import (
	"errors"
	"math"
	"time"
)

// ErrAdmissionShed is the error delivered to a client whose operation was
// shed by admission control before it reached the store.
var ErrAdmissionShed = errors.New("tenant: operation shed by admission control")

// ThrottleWindow is one contiguous interval during which a tenant was
// throttled at a given admission rate. A zero End marks a window still open
// when it was read.
type ThrottleWindow struct {
	Start time.Duration
	End   time.Duration
	// Rate is the admitted rate in ops/s during the window.
	Rate float64
}

// Limiter is a deterministic token-bucket admission controller for one
// tenant. All time is the simulation's virtual clock, passed in by the
// caller, so refill is exact and runs are bit-for-bit reproducible. A
// disabled limiter admits everything at zero cost beyond one branch.
//
// The bucket holds up to one second of tokens at the configured rate, so a
// throttled tenant can still burst briefly before shedding starts — the
// behaviour of production admission controllers, and what keeps the shed
// pattern smooth instead of saw-toothed.
type Limiter struct {
	enabled bool
	rate    float64
	burst   float64
	tokens  float64
	last    time.Duration

	windows []ThrottleWindow
}

// Enabled reports whether admission control is active.
func (l *Limiter) Enabled() bool { return l.enabled }

// Rate returns the admitted rate in ops/s (zero when disabled).
func (l *Limiter) Rate() float64 {
	if !l.enabled {
		return 0
	}
	return l.rate
}

// SetRate enables admission control at the given rate (ops/s), or tightens /
// loosens an already active limiter. Each rate change closes the open
// throttle window and opens a new one, so the report can show exactly when
// the tenant ran at which admission rate. Rates <= 0 are ignored.
func (l *Limiter) SetRate(opsPerSec float64, now time.Duration) {
	if opsPerSec <= 0 {
		return
	}
	if l.enabled && l.rate == opsPerSec {
		return
	}
	if l.enabled {
		l.closeWindow(now)
		// A tightening keeps the accumulated tokens (capped below); the
		// tenant does not get a fresh burst for being throttled harder.
	} else {
		l.tokens = opsPerSec // a full second of burst on activation
		l.last = now
	}
	l.enabled = true
	l.rate = opsPerSec
	l.burst = opsPerSec
	if l.burst < 1 {
		l.burst = 1
	}
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.windows = append(l.windows, ThrottleWindow{Start: now, Rate: opsPerSec})
}

// Disable removes admission control, closing the open throttle window.
func (l *Limiter) Disable(now time.Duration) {
	if !l.enabled {
		return
	}
	l.enabled = false
	l.rate = 0
	l.closeWindow(now)
}

func (l *Limiter) closeWindow(now time.Duration) {
	n := len(l.windows)
	if n == 0 || l.windows[n-1].End != 0 {
		return
	}
	if now <= l.windows[n-1].Start {
		// A window closed at the instant it opened never throttled anything;
		// drop it rather than record a zero-length window whose End of 0
		// would read as "still open" (the open-window sentinel) when the
		// throttle was engaged at virtual time zero.
		l.windows = l.windows[:n-1]
		return
	}
	l.windows[n-1].End = now
}

// Admit reports whether one arrival at virtual time now passes admission
// control, consuming a token when it does. A disabled limiter always admits.
func (l *Limiter) Admit(now time.Duration) bool {
	if !l.enabled {
		return true
	}
	if now > l.last {
		l.tokens += float64((now - l.last).Seconds() * l.rate)
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = now
	}
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// NextTokenWait returns how long after now the bucket will next hold a full
// token, without consuming anything. It returns 0 when a token is already
// available (or the limiter is disabled). Delay-mode admission uses this to
// schedule its queue drain instead of polling.
func (l *Limiter) NextTokenWait(now time.Duration) time.Duration {
	if !l.enabled {
		return 0
	}
	tokens := l.tokens
	if now > l.last {
		tokens += float64((now - l.last).Seconds() * l.rate)
		if tokens > l.burst {
			tokens = l.burst
		}
	}
	if tokens >= 1 {
		return 0
	}
	// rate is > 0 whenever the limiter is enabled. Round up so the drain
	// never fires a hair before the token exists.
	wait := time.Duration(math.Ceil((1 - tokens) / l.rate * float64(time.Second)))
	if wait < time.Nanosecond {
		wait = time.Nanosecond
	}
	return wait
}

// Windows returns the throttle windows recorded so far, with a still-open
// window closed at end for reporting.
func (l *Limiter) Windows(end time.Duration) []ThrottleWindow {
	out := make([]ThrottleWindow, len(l.windows))
	copy(out, l.windows)
	if n := len(out); n > 0 && out[n-1].End == 0 {
		out[n-1].End = end
	}
	return out
}

// ThrottledTime returns the total time the limiter has been enabled, with a
// still-open window counted up to end.
func (l *Limiter) ThrottledTime(end time.Duration) time.Duration {
	var total time.Duration
	for _, w := range l.Windows(end) {
		if w.End > w.Start {
			total += w.End - w.Start
		}
	}
	return total
}
