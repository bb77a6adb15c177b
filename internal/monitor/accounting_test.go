package monitor

import (
	"errors"
	"testing"
	"time"

	"autonosql/internal/store"
	"autonosql/internal/tenant"
)

// accounted is one result the store handed an accounting layer.
type accounted struct {
	layer string
	res   store.Result
}

// recorder stands in front of one accounting layer: it logs every result the
// store hands it, then passes the result on.
type recorder struct {
	layer string
	inner store.ClientObserver
	log   *[]accounted
}

func (r recorder) ObserveClient(res store.Result) {
	*r.log = append(*r.log, accounted{r.layer, res})
	r.inner.ObserveClient(res)
}

// TestClientAccountingExactlyOnce pins the store-side accounting of client
// operations issued through a tenant runtime: each one that reaches the
// store completes through the monitor's accounting, then the tenant's, then
// the caller's callback, once each, whether it succeeds, fails with
// ErrUnavailable (a crashed replica under CL=ALL writes) or waited in the
// delay-mode admission queue. The monitor sees the store's latency; the
// tenant and the callback see it plus the queue wait. A shed operation never
// reaches the store and is counted by the tenant alone; the prober's
// operations reach neither layer.
func TestClientAccountingExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeRate = 20
	storeCfg := store.DefaultConfig()
	storeCfg.WriteConsistency = store.All
	rig := newRig(t, cfg, storeCfg, 7)
	engine := rig.engine
	rig.store.RegisterTenants(1)
	rt, err := tenant.NewRuntime(1, "bronze", tenant.Bronze, rig.monitor.Tagged(1))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.EnableAdmission(engine.Now, func(write bool) { rig.store.TenantShed(1, write) }); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	var log []accounted
	if err := rig.store.ObserveClients(0, recorder{"monitor", rig.monitor, &log}); err != nil {
		t.Fatalf("ObserveClients: %v", err)
	}
	if err := rig.store.ObserveClients(1, recorder{"tenant", rt, &log}); err != nil {
		t.Fatalf("ObserveClients: %v", err)
	}

	var issued, done, succeeded, unavailable, shed, delayed int
	issue := func(write bool) {
		arrival := engine.Now()
		key := store.KeyID(issued % 100)
		issued++
		calls := 0
		cb := func(res store.Result) {
			if calls++; calls > 1 {
				t.Errorf("operation issued at %v completed %d times", arrival, calls)
			}
			done++
			accounting := log
			log = log[:0]
			if errors.Is(res.Err, tenant.ErrAdmissionShed) {
				shed++
				if len(accounting) != 0 {
					t.Errorf("shed operation reached the store's accounting: %+v", accounting)
				}
				return
			}
			if len(accounting) != 2 || accounting[0].layer != "monitor" || accounting[1].layer != "tenant" {
				t.Errorf("operation issued at %v was accounted %+v, want the monitor, then the tenant", arrival, accounting)
				return
			}
			mon, ten := accounting[0].res, accounting[1].res
			queued := res.IssuedAt - arrival
			if queued > 0 {
				delayed++
			}
			if mon.Latency != res.CompletedAt-res.IssuedAt {
				t.Errorf("monitor latency %v, want the store's %v", mon.Latency, res.CompletedAt-res.IssuedAt)
			}
			if ten.Latency != mon.Latency+queued || res.Latency != ten.Latency {
				t.Errorf("tenant latency %v and callback latency %v, want %v (store %v + queue wait %v)",
					ten.Latency, res.Latency, mon.Latency+queued, mon.Latency, queued)
			}
			if ten.Err != res.Err || mon.Err != res.Err {
				t.Errorf("errors differ: monitor %v, tenant %v, callback %v", mon.Err, ten.Err, res.Err)
			}
			switch {
			case res.Err == nil:
				succeeded++
			case errors.Is(res.Err, store.ErrUnavailable):
				unavailable++
			default:
				t.Errorf("unexpected failure %v", res.Err)
			}
		}
		if write {
			rt.WriteID(key, cb)
		} else {
			rt.ReadID(key, cb)
		}
	}
	burst := func(at time.Duration, n int) {
		engine.After(at, func(time.Duration) {
			for i := 0; i < n; i++ {
				issue(i%2 == 0)
			}
		})
	}
	must := func(err error) {
		if err != nil {
			t.Errorf("%v", err)
		}
	}

	// Successes, spread out.
	for i := 0; i < 40; i++ {
		burst(time.Duration(i)*10*time.Millisecond, 1)
	}
	// Failures: with one replica down, no CL=ALL write can be admitted.
	crashed := rig.cluster.Nodes()[0].ID()
	engine.After(time.Second, func(time.Duration) { must(rig.cluster.FailNode(crashed)) })
	burst(time.Second+time.Millisecond, 20)
	engine.After(1500*time.Millisecond, func(time.Duration) { must(rig.cluster.RecoverNode(crashed)) })
	// Sheds: a burst of five tokens admits five of twenty.
	engine.After(2*time.Second, func(time.Duration) { must(rt.Throttle(5)) })
	burst(2*time.Second, 20)
	// Delay-mode queueing: the excess waits, drains at 5/s and is flushed by
	// the release.
	engine.After(3*time.Second, func(time.Duration) {
		must(rt.Unthrottle())
		must(rt.EnableDelayMode(func(d time.Duration, fn func()) {
			engine.After(d, func(time.Duration) { fn() })
		}))
		must(rt.Throttle(5))
	})
	burst(3*time.Second, 20)
	engine.After(5*time.Second, func(time.Duration) { must(rt.Unthrottle()) })

	if err := engine.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != issued || len(log) != 0 {
		t.Fatalf("%d of %d operations completed, %d results accounted without a callback", done, issued, len(log))
	}
	t.Logf("%d operations: %d succeeded, %d unavailable, %d shed, %d delayed; %d probe operations",
		issued, succeeded, unavailable, shed, delayed, rig.monitor.ProbeOps())
	if succeeded == 0 || unavailable == 0 || shed == 0 || delayed == 0 {
		t.Fatalf("outcomes: %d succeeded, %d unavailable, %d shed, %d delayed; want each", succeeded, unavailable, shed, delayed)
	}
	if rig.monitor.ProbeOps() == 0 {
		t.Fatal("the prober issued nothing")
	}
	m := rig.monitor
	if m.opsInterval != uint64(issued-shed) || m.errorsInterval != uint64(unavailable) ||
		m.readLat.Count()+m.writeLat.Count() != succeeded {
		t.Errorf("monitor counted %d ops, %d errors, %d latencies; want %d, %d, %d",
			m.opsInterval, m.errorsInterval, m.readLat.Count()+m.writeLat.Count(), issued-shed, unavailable, succeeded)
	}
	sig := rt.Observe(10*time.Second, 10*time.Second, 0)
	if got := sig.OfferedOpsPerSec * 10; got != float64(issued) {
		t.Errorf("tenant counted %v ops, want %d", got, issued)
	}
	if want := float64(unavailable+shed) / float64(issued); sig.ErrorRate != want {
		t.Errorf("tenant error rate %v, want %v", sig.ErrorRate, want)
	}
}
