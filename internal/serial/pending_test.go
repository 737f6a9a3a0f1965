package serial

import (
	"errors"
	"testing"

	"dvsim/internal/sim"
)

// scanPending is the reference count Port.Pending keeps live: the
// offers in the queue that their senders have not withdrawn.
func scanPending(pt *Port) int {
	n := 0
	for _, of := range pt.pending {
		if !of.withdrawn {
			n++
		}
	}
	return n
}

// pendingChecker compares a port's live pending count with the
// reference scan at every process state transition, and records the
// highest scanned depth.
type pendingChecker struct {
	t    *testing.T
	pt   *Port
	max  int
	seen int
}

func (c *pendingChecker) ProcState(now sim.Time, p *sim.Proc, s sim.ProcState, why string) {
	c.seen++
	want := scanPending(c.pt)
	if got := c.pt.Pending(); got != want {
		c.t.Errorf("t=%v %s %v: Pending() = %d, scan = %d", now, p.Name(), s, got, want)
	}
	if want > c.max {
		c.max = want
	}
}

func TestPendingCountMatchesScan(t *testing.T) {
	// receiver accepts up to n transfers at pt from time at, giving up at
	// deadline.
	receiver := func(k *sim.Kernel, pt *Port, at, deadline sim.Time, n int) {
		k.SpawnAt(at, "r", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if _, err := pt.RecvDeadline(p, deadline); err != nil {
					return
				}
			}
		})
	}
	cases := []struct {
		name    string
		faults  []FaultVerdict
		senders int
		timeout sim.Time // sender deadline; 0 waits forever
		recv    func(k *sim.Kernel, b *Port)
		wantErr error
		wantMax int
	}{
		{
			name: "send then accept", senders: 1,
			recv:    func(k *sim.Kernel, b *Port) { receiver(k, b, 1, 10, 1) },
			wantMax: 1,
		},
		{
			name: "send times out and is withdrawn", senders: 1, timeout: 2,
			recv:    func(k *sim.Kernel, b *Port) { receiver(k, b, 3, 4, 1) },
			wantErr: sim.ErrTimeout, wantMax: 1,
		},
		{
			name: "dropped transfer", senders: 1, faults: []FaultVerdict{FaultDrop},
			recv:    func(k *sim.Kernel, b *Port) { receiver(k, b, 1, 5, 1) },
			wantErr: ErrDropped, wantMax: 1,
		},
		{
			name: "garbled transfer", senders: 1, faults: []FaultVerdict{FaultGarble},
			recv:    func(k *sim.Kernel, b *Port) { receiver(k, b, 1, 5, 1) },
			wantErr: ErrGarbled, wantMax: 1,
		},
		{
			name: "several senders queued", senders: 3,
			recv:    func(k *sim.Kernel, b *Port) { receiver(k, b, 1, 20, 3) },
			wantMax: 3,
		},
		{
			// The sender's deadline fires first, but the receiver takes
			// the offer before the sender resumes to withdraw it: the
			// withdrawal must not count the taken offer a second time.
			// The receiver's start event is queued at t=1, after the
			// sender armed its deadline, so it fires second at t=2.
			name: "withdrawn in the instant it is accepted", senders: 1, timeout: 2,
			recv: func(k *sim.Kernel, b *Port) {
				k.At(1, func() { receiver(k, b, 2, 4, 1) })
			},
			wantErr: sim.ErrTimeout, wantMax: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			net := NewNetwork(k, DefaultLink())
			if tc.faults != nil {
				net.Fault = &scriptedFaults{verdicts: tc.faults}
			}
			b := net.Port("b")
			chk := &pendingChecker{t: t, pt: b}
			k.SetTracer(chk)
			for i := 0; i < tc.senders; i++ {
				from := net.Port(string(rune('c' + i)))
				k.Spawn("s", func(p *sim.Proc) {
					err := from.SendDeadline(p, b, Message{KB: 1}, tc.timeout)
					if !errors.Is(err, tc.wantErr) {
						t.Errorf("send err = %v, want %v", err, tc.wantErr)
					}
				})
			}
			tc.recv(k, b)
			k.Run()
			if chk.seen == 0 {
				t.Fatal("checker never ran")
			}
			if got := b.Pending(); got != 0 || scanPending(b) != 0 {
				t.Fatalf("after run: Pending() = %d, scan = %d, want 0", got, scanPending(b))
			}
			if got := b.Stats().MaxPending; got != chk.max || got != tc.wantMax {
				t.Fatalf("MaxPending = %d, scanned max = %d, want %d", got, chk.max, tc.wantMax)
			}
		})
	}
}
