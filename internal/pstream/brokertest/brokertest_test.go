// Self-checks for the battery itself: the conformance run is the contract
// both brokers are held to, so a battery regression must fail here, in
// isolation, against the reference MemBroker — not as a confusing failure
// in some broker's own test suite.
package brokertest

import (
	"context"
	"testing"
	"time"

	"proxystore/internal/pstream"
)

// testLease keeps the lease-expiry subtests fast.
const testLease = 200 * time.Millisecond

func TestBatteryAgainstReferenceBroker(t *testing.T) {
	Run(t, func(t *testing.T) pstream.Broker {
		return pstream.NewMem(pstream.WithMemLease(testLease))
	}, Options{ClaimLease: testLease})
}

func TestBatteryAgainstJitteredReferenceBroker(t *testing.T) {
	// The battery must hold under perturbed timing, not just the happy
	// schedule: every operation of the reference broker is delayed by a
	// seeded random jitter well under the lease.
	if testing.Short() {
		t.Skip("jittered battery run is slow")
	}
	Run(t, func(t *testing.T) pstream.Broker {
		return NewJitter(pstream.NewMem(pstream.WithMemLease(2*time.Second)), 42, 2*time.Millisecond)
	}, Options{ClaimLease: 0}) // lease tests would double jitter sleeps; covered unjittered above
}

func TestFreshTopicsAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		topic := freshTopic("x")
		if seen[topic] {
			t.Fatalf("freshTopic repeated %q", topic)
		}
		seen[topic] = true
	}
}

// TestBatteryEventHelperCarriesIdentity pins the helper the battery builds
// every scenario from: a regression that dropped Producer or Seq would
// silently weaken most subtests.
func TestBatteryEventHelperCarriesIdentity(t *testing.T) {
	e := ev("prod", 7)
	if e.Producer != "prod" || e.Seq != 7 || e.Key.ID == "" {
		t.Fatalf("ev() = %+v", e)
	}
}

// TestRetrySurfacesPersistentFailure guards the restart helper: retry must
// eventually give up (via t.Fatal) rather than loop forever, and must stop
// early on success.
func TestRetrySurfacesPersistentFailure(t *testing.T) {
	calls := 0
	v := retry(t, 5, "flaky", func() (int, error) {
		calls++
		if calls < 3 {
			return 0, context.DeadlineExceeded
		}
		return 42, nil
	})
	if v != 42 || calls != 3 {
		t.Fatalf("retry = %d after %d calls", v, calls)
	}
}
