package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"disttrack/internal/remote"
)

// coordArgs and siteArgs are the coordinator and site-node command lines
// every two-process scenario shares, plus extra flags.
func coordArgs(extra ...string) []string {
	return append([]string{"-role", "coord", "-listen", anyAddr, "-ingest-listen", anyAddr}, extra...)
}

func siteArgs(coord *proc, extra ...string) []string {
	return append([]string{"-role", "site", "-node", "edge-1", "-listen", anyAddr,
		"-upstream", coord.ingest, "-forward-delay", "5ms"}, extra...)
}

// breaker makes a coordinator's tripped per-node breaker recover within
// the scenario. A site node has no breaker: backoff alone paces its redials.
var breaker = []string{"-breaker-fail", "3", "-breaker-open", "300ms"}

// durableArgs run a node durably on dir. The 1 h checkpoint interval keeps
// the background checkpointer out of the picture, so recovery and replay
// counts depend only on what the scenario does.
func durableArgs(dir string) []string {
	return []string{"-data-dir", dir, "-checkpoint-interval", "1h", "-fsync", "always"}
}

// heavy requires the heavy-hitter query at φ = 0.2 to answer with an empty
// items list. The scenarios' values cycle over 13 values, so none reaches
// (φ − ε)·n = 0.15·n and the tracker may report none.
func (r *run) heavy(p *proc, tenant string) {
	var ans struct {
		Phi   float64
		Items json.RawMessage
	}
	r.get(p.url("/v1/tenants/"+tenant+"/heavy?phi=0.2"), &ans)
	want(r, tenant+" heavy phi", ans.Phi, 0.2)
	var items []json.RawMessage
	if ans.Items == nil || json.Unmarshal(ans.Items, &items) != nil {
		r.fail("%s heavy on %s: no items list in %+v", tenant, p.name, ans)
	}
	want(r, tenant+" heavy items on "+p.name, len(items), 0)
}

// obsScenario boots a coordinator and a site node, pushes records through
// the site, and requires on every /metrics endpoint the families
// docs/observability.md promises. Families carry HELP/TYPE lines before
// their first sample, so a missing one means the catalog regressed, not that
// the workload was too small.
func obsScenario(r *run) {
	coord := r.start("coord", coordArgs("-metrics", anyAddr)...)
	r.get(coord.url("/v1/healthz"), nil) // the versioned alias answers too
	site := r.start("site", siteArgs(coord)...)

	r.step("creating tenant and ingesting through the site node")
	r.createTenant(coord, map[string]any{"name": "clicks", "kind": "hh", "k": 4, "eps": 0.05})
	r.ingest(site, "clicks", 200, 4, 0)
	r.post(coord.url("/v1/flush"), nil, nil)

	coordFamilies := []string{
		"disttrack_cluster_processed_total",
		"disttrack_wire_msgs_total",
		"disttrack_wire_words_total",
		"disttrack_ingest_accepted_total",
		"disttrack_remote_frames_total",
		"disttrack_remote_bytes_in_total",
		"disttrack_remote_wire_msgs_total",
		"disttrack_http_requests_total",
		"disttrack_query_cache_hits_total",
		"disttrack_tenants",
		"disttrack_uptime_seconds",
		"disttrack_build_info",
	}
	// The main listener and the dedicated -metrics listener serve the same
	// registry, and the networked path carried every record.
	for _, s := range []metrics{
		r.scrape("coordinator /metrics", coord.http),
		r.scrape("coordinator -metrics listener", coord.metrics),
	} {
		s.families(coordFamilies...)
		s.want("disttrack_remote_values_total", 200)
		s.want(`disttrack_cluster_processed_total{tenant="clicks"}`, 200)
		s.exactlyOnce()
	}

	s := r.scrape("site /metrics", site.http)
	s.families(
		"disttrack_node_accepted_total",
		"disttrack_node_batches_total",
		"disttrack_node_reconnects_total",
		"disttrack_node_bytes_total",
		"disttrack_node_window_occupancy",
		"disttrack_node_uptime_seconds",
		"disttrack_build_info",
	)
	s.want("disttrack_node_accepted_total", 200)
	r.heavy(coord, "clicks")
}

// faultScenario is the docs/operations.md runbook live: per-tenant
// admission on the HTTP edge (a partial batch answers 200, a fully
// throttled one 429 with Retry-After), then kill -9 the site, watch the
// coordinator degrade but keep serving, restart the site under the same
// node name and require exactly-once totals.
func faultScenario(r *run) {
	coord := r.start("coord", coordArgs(breaker...)...)
	site := r.start("site", siteArgs(coord)...)

	r.step("creating tenants (one QoS-limited)")
	r.createTenant(coord, map[string]any{"name": "clicks", "kind": "hh", "k": 2, "eps": 0.05})
	r.createTenant(coord, map[string]any{"name": "limited", "kind": "hh", "k": 2, "eps": 0.05,
		"rate_limit": 0.01, "rate_burst": 1})

	r.step("baseline ingest through the site node")
	r.ingest(site, "clicks", 200, 2, 0)
	want(r, "baseline clicks processed", r.stats(coord, "clicks").Processed, 200)

	r.step("per-tenant admission: the burst passes, then 429 + Retry-After")
	batch := map[string]any{"records": []record{{"limited", 0, 1}, {"limited", 0, 2}, {"limited", 0, 3}}}
	var part struct {
		Accepted int
		Rejected []struct{ Code string }
	}
	r.post(coord.url("/v1/ingest"), batch, &part)
	want(r, "first limited batch accepted (the burst)", part.Accepted, 1)
	want(r, "first limited batch rejected", len(part.Rejected), 2)
	for _, e := range part.Rejected {
		want(r, "throttled record code", e.Code, "rate_limited")
	}
	hdr := r.do(http.MethodPost, coord.url("/v1/ingest"), batch, nil, http.StatusTooManyRequests)
	// At 0.01 records/s the next token is 100 s away; the two batches go
	// back to back, so the rounded-up hint is exactly 100.
	want(r, "Retry-After on the 429", hdr.Get("Retry-After"), "100")
	qos, ok := r.health(coord).TenantQoS["limited"]
	want(r, "/healthz tenant_qos has limited", ok, true)
	want(r, "/healthz limited rate_limit", qos.RateLimit, 0.01)
	want(r, "/healthz limited throttled", qos.Throttled, 5)

	s := r.scrape("coordinator /metrics", coord.http)
	s.families(
		"disttrack_ingest_throttled_total",
		"disttrack_admission_throttled_total",
		"disttrack_admission_queued",
		"disttrack_remote_degraded",
		"disttrack_remote_node_connected",
		"disttrack_remote_node_breaker_state",
		"disttrack_remote_node_breaker_trips_total",
		"disttrack_remote_refused_hellos_total",
		"disttrack_remote_throttled_values_total",
	)
	s.want("disttrack_remote_degraded", 0)
	s.want(`disttrack_remote_node_connected{node="edge-1"}`, 1)
	s.want(`disttrack_admission_throttled_total{tenant="limited"}`, 5)

	r.kill9(site)
	r.waitHealth(coord, "coordinator degraded after the site's kill", func(h health) bool { return h.Degraded })
	// Degraded, not down: queries answer from last-known site state.
	r.heavy(coord, "clicks")
	s = r.scrape("coordinator /metrics", coord.http)
	s.want("disttrack_remote_degraded", 1)
	s.want(`disttrack_remote_node_connected{node="edge-1"}`, 0)

	r.boot(site) // same node name, same address
	r.waitHealth(coord, "coordinator recovered after the site's restart", func(h health) bool { return !h.Degraded })
	r.ingest(site, "clicks", 100, 2, 200)
	want(r, "clicks processed across the kill and restart", r.stats(coord, "clicks").Processed, 300)
	r.scrape("coordinator /metrics", coord.http).exactlyOnce()

	s = r.scrape("site /metrics", site.http)
	s.families(
		"disttrack_node_connected",
		"disttrack_node_dial_attempts_total",
	)
	s.want("disttrack_node_connected", 1)
}

// crashScenario is the docs/durability.md walkthrough live on a durable
// node started in the default role without -ingest-listen: kill -9 before
// any checkpoint (recovery is pure WAL replay), then SIGTERM (a final
// checkpoint, so the next boot replays nothing), with exactly-once totals
// after each boot.
func crashScenario(r *run) {
	node := r.start("trackd", append([]string{"-listen", anyAddr}, durableArgs(filepath.Join(r.dir, "data"))...)...)
	// Without -ingest-listen a coordinator serves HTTP alone.
	want(r, "TCP ingest listener of a node without -ingest-listen", node.ingest, "")
	r.createTenant(node, map[string]any{"name": "clicks", "kind": "hh", "k": 1, "eps": 0.05})
	r.createTenant(node, map[string]any{"name": "ranks", "kind": "allq", "k": 1, "eps": 0.1})
	r.ingest(node, "clicks", 120, 1, 0)
	r.ingest(node, "ranks", 80, 1, 5)
	r.wantCounts(node, "clicks", 120)
	r.kill9(node)

	r.boot(node)
	r.wantCounts(node, "clicks", 120)
	r.wantCounts(node, "ranks", 80)
	r.heavy(node, "clicks")
	// ranks holds 80 values, 6 and 7 seven times and every other value of
	// 1..13 six times: the median is 7. The tenant is still in its exact
	// bootstrap.
	var q struct{ Phi, Value float64 }
	r.get(node.url("/v1/tenants/ranks/quantile?phi=0.5"), &q)
	want(r, "recovered ranks median", q, struct{ Phi, Value float64 }{0.5, 7})
	h := r.health(node)
	if h.Durability == nil {
		r.fail("/healthz has no durability block")
	}
	want(r, "/healthz recovered_tenants", h.Durability.RecoveredTenants, 2)

	s := r.scrape("/metrics", node.http)
	s.families(
		"disttrack_checkpoint_total",
		"disttrack_checkpoint_bytes",
		"disttrack_checkpoint_duration_seconds",
		"disttrack_checkpoint_errors_total",
		"disttrack_wal_appended_total",
		"disttrack_wal_replayed_total",
		"disttrack_wal_fsync_total",
		"disttrack_wal_errors_total",
		"disttrack_last_checkpoint_age_seconds",
	)
	// No checkpoint ran, so recovery replayed the whole WAL: one record
	// batch per single-tenant, single-site POST.
	s.want("disttrack_wal_replayed_total", 2)
	s.want("disttrack_wal_errors_total", 0)

	r.ingest(node, "clicks", 30, 1, 7)
	r.wantCounts(node, "clicks", 150)
	r.term(node)

	r.boot(node)
	r.wantCounts(node, "clicks", 150)
	r.wantCounts(node, "ranks", 80)
	// The shutdown checkpoint covered the whole WAL.
	r.scrape("/metrics", node.http).want("disttrack_wal_replayed_total", 0)
}

// membershipScenario is the docs/operations.md scaling runbook live: a
// site added mid-stream (k 2 → 3) bumps the membership epoch and the node
// re-handshakes; then kill -9 the durable coordinator and restart it on the
// same data dir. The cursor table is persisted only by the membership change
// itself, so the resync exercises the cursor-file ∨ WAL-provenance merge.
func membershipScenario(r *run) {
	coord := r.start("coord", coordArgs(append(durableArgs(filepath.Join(r.dir, "data")), breaker...)...)...)
	site := r.start("site", siteArgs(coord)...)
	r.createTenant(coord, map[string]any{"name": "clicks", "kind": "hh", "k": 2, "eps": 0.05})

	r.step("baseline ingest through the site node (k=2)")
	r.ingest(site, "clicks", 200, 2, 0)
	r.wantCounts(coord, "clicks", 100, 100)
	want(r, "fresh coordinator epoch", r.health(coord).Membership.Epoch, 1)

	r.step("live site add (k 2 -> 3)")
	var ch struct{ Epoch uint64 }
	r.post(coord.url("/v1/admin/membership"), map[string]any{"tenant": "clicks", "k": 3}, &ch)
	want(r, "membership change epoch", ch.Epoch, 2)
	epoch2 := func(h health) bool { return h.Membership.Epoch == 2 }
	r.waitHealth(coord, "epoch 2 after the change", epoch2)
	r.ingest(site, "clicks", 100, 2, 7)
	r.wantCounts(coord, "clicks", 150, 150, 0)

	s := r.scrape("coordinator /metrics", coord.http)
	s.families("disttrack_membership_epoch", "disttrack_membership_changes_total")
	s.want("disttrack_membership_epoch", 2)
	s.want("disttrack_membership_changes_total", 1)
	// The change swapped the tenant's cluster; its processed count must
	// carry the drained cluster's 200 over.
	s.exactlyOnce()

	// The epoch change cut the site's connection once already; the restart
	// below must cost it exactly one more reconnect.
	reconnects := r.scrape("site /metrics", site.http).samples["disttrack_node_reconnects_total"]
	r.kill9(coord)
	r.boot(coord)
	// The restarted coordinator resumes at epoch 2 with edge-1's cursor, so
	// the node's replayed tail is deduplicated.
	r.waitHealth(coord, "epoch 2 after the restart", epoch2)
	h := r.health(coord)
	want(r, "/healthz durable_cursors", h.Membership.DurableCursors, true)
	want(r, "/healthz cursor_nodes", h.Membership.CursorNodes, 1)
	r.wantCounts(coord, "clicks", 150, 150, 0)

	r.waitHealth(coord, "site reconnected", func(h health) bool { return !h.Degraded })
	r.ingest(site, "clicks", 100, 2, 11)
	r.wantCounts(coord, "clicks", 200, 200, 0)
	// The site's side of the heal: its flush just crossed a live link, made
	// by one successful redial.
	s = r.scrape("site /metrics", site.http)
	s.want("disttrack_node_connected", 1)
	s.want("disttrack_node_reconnects_total", reconnects+1)
	r.heavy(coord, "clicks")
}

// loadScenario drives a fixed load through both ingest planes of a live
// coordinator and requires it processed exactly what was sent: HTTP batches
// from two goroutines, and delta frames from two remote.DialNode clients
// built from this tree (the handshake refuses a frame-version mismatch, so
// this is the check that both ends speak the same wire format). Then the
// ETag path must answer 304.
func loadScenario(r *run) {
	const workers, batches, size = 2, 40, 128
	coord := r.start("coord", coordArgs()...)
	// A site node boots beside the coordinator, as deployed; the load
	// bypasses it.
	r.start("site", siteArgs(coord)...)

	r.step("HTTP ingest at the coordinator")
	r.createTenant(coord, map[string]any{"name": "lg-http", "kind": "hh", "k": 4, "eps": 0.05})
	r.parallel("HTTP client", workers, func(w int) error {
		for b := 0; b < batches; b++ {
			recs := make([]record, size)
			for i := range recs {
				recs[i] = record{"lg-http", (w + i) % 4, uint64(b*size + i)}
			}
			body, err := json.Marshal(map[string]any{"records": recs})
			if err != nil {
				return err
			}
			resp, err := client.Post(coord.url("/v1/ingest"), "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			var out struct{ Accepted int }
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || out.Accepted != size {
				return fmt.Errorf("batch %d: status %d, accepted %d of %d (%v)", b, resp.StatusCode, out.Accepted, size, err)
			}
		}
		return nil
	})
	r.post(coord.url("/v1/flush"), nil, nil)
	want(r, "lg-http processed", r.stats(coord, "lg-http").Processed, workers*batches*size)

	r.step("TCP delta frames at the coordinator's ingest listener")
	r.createTenant(coord, map[string]any{"name": "lg-tcp", "kind": "hh", "k": 4, "eps": 0.05})
	r.parallel("node client", workers, func(w int) error {
		cl, err := remote.DialNode(coord.ingest, remote.NodeConfig{Node: fmt.Sprintf("smoke-%d", w)})
		if err != nil {
			return err
		}
		for b := 0; b < batches; b++ {
			vs := make([]uint64, size)
			for i := range vs {
				vs[i] = uint64(b*size + i)
			}
			if err := cl.SendBatch("lg-tcp", (w+b)%4, remote.TKindUnknown, vs); err != nil {
				return err
			}
		}
		// Flush fences the coordinator: every frame is applied on return.
		if err := cl.Flush(); err != nil {
			return err
		}
		return cl.Close()
	})
	want(r, "lg-tcp processed", r.stats(coord, "lg-tcp").Processed, workers*batches*size)

	r.step("ETag conditional GET")
	url := coord.url("/v1/tenants/lg-http/heavy?phi=0.2")
	etag := r.get(url, nil).Get("ETag")
	if etag == "" {
		r.fail("heavy query carried no ETag")
	}
	resp, _ := r.call(http.MethodGet, url, nil, "If-None-Match", etag)
	want(r, "conditional GET status", resp.StatusCode, http.StatusNotModified)
	s := r.scrape("coordinator /metrics", coord.http)
	s.want("disttrack_query_cache_etag_hits_total", 1)
	s.want("disttrack_remote_refused_hellos_total", 0)
	s.exactlyOnce()
}

// parallel runs f(0) … f(n-1) concurrently and fails on the first error,
// naming its worker.
func (r *run) parallel(worker string, n int, f func(w int) error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = f(w)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			r.fail("%s %d: %v", worker, w, err)
		}
	}
}
