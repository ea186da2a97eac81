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
	l.Send(1000)
	l.Send(2000)
	bytes, transfers, busy := l.Stats()
	if bytes != 3000 || transfers != 2 {
		t.Fatalf("bytes=%d transfers=%d", bytes, transfers)
	}
	if busy != l.TransferTime(1000)+l.TransferTime(2000) {
		t.Fatalf("busy=%v", busy)
	}
	l.Reset()
	bytes, transfers, busy = l.Stats()
	if bytes != 0 || transfers != 0 || busy != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestVirtualModeDoesNotSleep(t *testing.T) {
	l, err := NewLink("fast", 1, 0) // 1 bit/s: a byte takes 8 virtual seconds
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d := l.Send(10)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("virtual send slept %v", elapsed)
	}
	if d != 80*time.Second {
		t.Fatalf("virtual duration %v, want 80s", d)
	}
}

func TestPacedModeSleepsScaled(t *testing.T) {
	l, err := NewLink("paced", 8e3, 0) // 1 KB/s
	if err != nil {
		t.Fatal(err)
	}
	l.SetMode(Paced, 100) // 100x faster than real time
	start := time.Now()
	d := l.Send(1000) // 1s virtual → 10ms real
	elapsed := time.Since(start)
	if d != time.Second {
		t.Fatalf("virtual duration %v", d)
	}
	if elapsed < 5*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("paced sleep %v, want ~10ms", elapsed)
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

func TestPaperTopology(t *testing.T) {
	topo := NewPaperTopology()
	if topo.EdgeToCloud.Bandwidth() != 30e6 {
		t.Fatalf("edge-cloud bandwidth %v, want 30 Mbps", topo.EdgeToCloud.Bandwidth())
	}
	if topo.CameraToEdge.Bandwidth() <= topo.EdgeToCloud.Bandwidth() {
		t.Fatal("camera-edge LAN should be faster than the WAN")
	}
	// 12.26 GB over 30 Mbps ≈ 54.5 minutes — the full-video upload cost
	// that motivates edge filtering (Figure 5's "I-frame cloud" bar).
	d := topo.EdgeToCloud.TransferTime(12_260_000_000)
	if d < 50*time.Minute || d > 60*time.Minute {
		t.Fatalf("paper-scale upload = %v, want ~54 min", d)
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
	if d := l.Drops(); d != 2 {
		t.Fatalf("Drops = %d, want 2", d)
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
	// Legacy Send keeps working even while down (pure metering path).
	l.Fail()
	if d := l.Send(100); d <= 0 {
		t.Fatalf("Send while down returned %v", d)
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

func TestResetClearsDrops(t *testing.T) {
	l, err := NewLink("drops", 8e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Fail()
	l.TrySend(1)
	l.Reset()
	if d := l.Drops(); d != 0 {
		t.Fatalf("Drops after Reset = %d", d)
	}
	if !l.Down() {
		t.Fatal("Reset cleared the fault state; it should only clear counters")
	}
}
