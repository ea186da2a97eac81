package simnet

import (
	"math"
	"testing"
	"time"
)

func TestTransferTime(t *testing.T) {
	l, err := NewLink("test", 8e6, 0) // 8 Mbps → 1 MB/s
	if err != nil {
		t.Fatal(err)
	}
	if d := l.TransferTime(1_000_000); d != time.Second {
		t.Fatalf("1MB over 8Mbps = %v, want 1s", d)
	}
	l2, err := NewLink("lat", 8e6, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d := l2.TransferTime(0); d != 100*time.Millisecond {
		t.Fatalf("latency-only transfer = %v", d)
	}
}

func TestSendAccounting(t *testing.T) {
	l, err := NewLink("acct", 30e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1000, 2000} {
		if d, err := l.TrySend(n); err != nil || d != l.TransferTime(n) {
			t.Fatalf("TrySend(%d) = (%v, %v), want (%v, nil)", n, d, err, l.TransferTime(n))
		}
	}
	bytes, transfers, busy := l.Stats()
	if bytes != 3000 || transfers != 2 {
		t.Fatalf("bytes=%d transfers=%d", bytes, transfers)
	}
	if busy != l.TransferTime(1000)+l.TransferTime(2000) {
		t.Fatalf("busy=%v", busy)
	}
}

// TestVirtualModeDoesNotSleep: links only account virtual time — an
// 80-second transfer returns at once.
func TestVirtualModeDoesNotSleep(t *testing.T) {
	l, err := NewLink("fast", 1, 0) // 1 bit/s: a byte takes 8 virtual seconds
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d, err := l.TrySend(10)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("virtual send slept %v", elapsed)
	}
	if err != nil || d != 80*time.Second {
		t.Fatalf("virtual duration (%v, %v), want (80s, nil)", d, err)
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink("bad", 0, 0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := NewLink("bad", -5, 0); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if _, err := NewLink("bad", 10, -time.Second); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestFailHealTrySend(t *testing.T) {
	l, err := NewLink("fault", 8e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Fatal("new link reports down")
	}
	if _, err := l.TrySend(1000); err != nil {
		t.Fatalf("TrySend on healthy link: %v", err)
	}
	l.Fail()
	if !l.Down() {
		t.Fatal("Fail did not mark the link down")
	}
	if _, err := l.TrySend(1000); err != ErrLinkDown {
		t.Fatalf("TrySend on failed link = %v, want ErrLinkDown", err)
	}
	if _, err := l.TrySend(1000); err != ErrLinkDown {
		t.Fatalf("second TrySend on failed link = %v, want ErrLinkDown", err)
	}
	// A dropped send must not meter bytes: only the pre-Fail transfer counts.
	bytes, transfers, _ := l.Stats()
	if bytes != 1000 || transfers != 1 {
		t.Fatalf("failed sends metered: bytes=%d transfers=%d", bytes, transfers)
	}
	l.Heal()
	if l.Down() {
		t.Fatal("Heal did not clear the down flag")
	}
	if _, err := l.TrySend(500); err != nil {
		t.Fatalf("TrySend after Heal: %v", err)
	}
}

func TestDegradeScalesTransferTime(t *testing.T) {
	l, err := NewLink("slow", 8e6, 0) // 1 MB/s
	if err != nil {
		t.Fatal(err)
	}
	base := l.TransferTime(1_000_000)
	if base != time.Second {
		t.Fatalf("baseline transfer = %v, want 1s", base)
	}
	l.Degrade(4)
	if g := l.Degraded(); g != 4 {
		t.Fatalf("Degraded = %v, want 4", g)
	}
	if d := l.TransferTime(1_000_000); d != 4*time.Second {
		t.Fatalf("degraded transfer = %v, want 4s", d)
	}
	if d, err := l.TrySend(1_000_000); err != nil || d != 4*time.Second {
		t.Fatalf("degraded TrySend = (%v, %v), want (4s, nil)", d, err)
	}
	l.Degrade(1)
	if d := l.TransferTime(1_000_000); d != time.Second {
		t.Fatalf("restored transfer = %v, want 1s", d)
	}
	// Factors below 1 clamp: a fault can't make the link faster.
	l.Degrade(0.25)
	if d := l.TransferTime(1_000_000); d != time.Second {
		t.Fatalf("sub-1 degrade changed rate: %v", d)
	}
	// Degradation survives a Fail/Heal cycle.
	l.Degrade(2)
	l.Fail()
	l.Heal()
	if g := l.Degraded(); g != 2 {
		t.Fatalf("Degraded after Fail/Heal = %v, want 2", g)
	}
}

// TestDegradeNaNIsFullRate: Degrade(NaN) is Degrade(1) — it lifts an
// earlier degradation and stores 1, not NaN, as the divisor.
func TestDegradeNaNIsFullRate(t *testing.T) {
	l, err := NewLink("nan", 8e6, 0) // 1 MB/s
	if err != nil {
		t.Fatal(err)
	}
	l.Degrade(4)
	l.Degrade(math.NaN())
	if l.degrade != 1 {
		t.Fatalf("Degrade(NaN) stored divisor %v, want 1", l.degrade)
	}
	if g := l.Degraded(); g != 1 {
		t.Fatalf("Degraded after Degrade(NaN) = %v, want 1", g)
	}
	if d := l.TransferTime(1_000_000); d != time.Second {
		t.Fatalf("transfer after Degrade(NaN) = %v, want 1s", d)
	}
}
