package replica

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeURL fetches base/metrics and returns the exposition body.
func scrapeURL(t *testing.T, base string) string {
	t.Helper()
	res, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", res.StatusCode)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one exact series line's value, or fails.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: unparsable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, body)
	return 0
}

// TestClusterMetrics scrapes /metrics on BOTH sides of a replicating
// pair and pins the cross-instance contract: the leader exposes
// publisher-side series (subscribers, published records, received
// forwarded observations, enqueue lag), the follower exposes
// apply-side series (snapshots/decisions applied, forward counters,
// decode-vs-apply lag), and oreo_replication_epoch converges to the
// same value on both so subtracting the two scrapes measures lag.
func TestClusterMetrics(t *testing.T) {
	const rows = 1200
	leader, _, lts := newLeader(t, rows, 80, 0)
	fol := newFollowerFixture(t, rows, lts.URL, true)
	fts := newFollowerServer(t, fol)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	const decided = 9
	for i := 0; i < decided; i++ {
		if _, err := leader.Answer(ctx, workloadQuery(i, rows)); err != nil {
			t.Fatal(err)
		}
	}
	// And one query answered at the follower, so the forward loop and
	// the leader's received-observation counters light up too.
	if _, err := fol.Core().Answer(ctx, workloadQuery(3, rows)); err != nil {
		t.Fatal(err)
	}
	const total = decided + 1
	waitFor(t, "follower converged", func() bool { return fol.Position("orders") == total })
	waitFor(t, "forward acknowledged", func() bool { return fol.fwd.forwarded.Load() == 1 })

	lb := scrapeURL(t, lts.URL)
	fb := scrapeURL(t, fts.URL)

	// Leader-side publisher series.
	if got := metricValue(t, lb, `oreo_replication_subscribers`); got != 1 {
		t.Errorf("subscribers = %v, want 1", got)
	}
	if got := metricValue(t, lb, `oreo_replication_published_total`); got < total {
		t.Errorf("published = %v, want >= %d", got, total)
	}
	if got := metricValue(t, lb, `oreo_replication_observations_received_total{result="observed"}`); got != 1 {
		t.Errorf("received observed = %v, want 1", got)
	}
	if got := metricValue(t, lb, `oreo_role{role="leader"}`); got != 1 {
		t.Errorf("leader role gauge = %v", got)
	}

	// Follower-side apply series.
	if got := metricValue(t, fb, `oreo_replication_snapshots_applied_total`); got < 1 {
		t.Errorf("snapshots applied = %v, want >= 1", got)
	}
	if got := metricValue(t, fb, `oreo_replication_decisions_applied_total`); got != total {
		t.Errorf("decisions applied = %v, want %d", got, total)
	}
	if got := metricValue(t, fb, `oreo_replication_forwarded_total`); got != 1 {
		t.Errorf("forwarded = %v, want 1", got)
	}
	if got := metricValue(t, fb, `oreo_role{role="follower"}`); got != 1 {
		t.Errorf("follower role gauge = %v", got)
	}
	if got := metricValue(t, fb, `oreo_queries_served_total{table="orders"}`); got != 1 {
		t.Errorf("follower served = %v, want 1", got)
	}

	// The same series name on both sides is the lag instrument: after
	// convergence both report the same epoch and zero lag.
	le := metricValue(t, lb, `oreo_replication_epoch{table="orders"}`)
	fe := metricValue(t, fb, `oreo_replication_epoch{table="orders"}`)
	if le != total || fe != total {
		t.Errorf("replication epoch: leader %v, follower %v, want %d both", le, fe, total)
	}
	if lag := metricValue(t, lb, `oreo_replication_lag_epochs{table="orders"}`); lag != 0 {
		t.Errorf("leader-side lag after convergence = %v", lag)
	}
	if lag := metricValue(t, fb, `oreo_replication_lag_epochs{table="orders"}`); lag != 0 {
		t.Errorf("follower-side lag after convergence = %v", lag)
	}
}
