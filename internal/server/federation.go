package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"grub/internal/cluster"
	"grub/internal/obs"
)

// Metrics federation: GET /cluster/metrics on any node answers one
// Prometheus exposition covering the whole cluster. The answering node
// renders its own registry in-process and scrapes every peer's /metrics
// concurrently (bounded fan-in, per-peer timeout), parses each with the
// obs exposition parser, and merges the families with a `node` label
// distinguishing the sources. A peer that is down, slow or serving
// malformed text contributes nothing but its grub_cluster_scrape_ok
// marker — a dead node makes the scrape smaller, never hanging or
// poisoning it.

const (
	// federationFanIn bounds concurrent peer scrapes.
	federationFanIn = 4
	// federationTimeout bounds each peer scrape; past it the peer is
	// marked failed (grub_cluster_scrape_ok 0) and skipped.
	federationTimeout = 2 * time.Second
	// federationMaxBody caps one peer's exposition payload.
	federationMaxBody = 16 << 20
)

// memberScrape is one member's contribution to the federated document.
type memberScrape struct {
	member string
	fams   []obs.ParsedFamily
	ok     bool
}

// clusterMetricsHandler serves GET /cluster/metrics. Without a cluster
// node it answers 503, like the rest of the /cluster/* surface.
func clusterMetricsHandler(g *Gateway, node *cluster.Node, slow *slowLogger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			writeJSON(w, http.StatusServiceUnavailable,
				errorBody{Error: "cluster: clustering disabled (start grubd with -join)"})
			return
		}
		st := node.Status()
		scrapes := make([]memberScrape, len(st.Members))
		sem := make(chan struct{}, federationFanIn)
		var wg sync.WaitGroup
		for i, m := range st.Members {
			if m.Self {
				// Self renders in-process: same text /metrics serves,
				// no loopback HTTP round trip to get it.
				fams, err := obs.ParseExposition(renderMetrics(g, node, slow))
				scrapes[i] = memberScrape{member: m.URL, fams: fams, ok: err == nil}
				continue
			}
			wg.Add(1)
			go func(i int, peer string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				fams, err := scrapePeer(r.Context(), node.HTTPClient(), peer)
				scrapes[i] = memberScrape{member: peer, fams: fams, ok: err == nil}
			}(i, m.URL)
		}
		wg.Wait()

		var b strings.Builder
		obs.WriteFamilies(&b, []obs.ParsedFamily{scrapeOKFamily(scrapes)})
		obs.WriteFamilies(&b, mergeScrapes(scrapes))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(b.String()))
	}
}

// scrapePeer fetches and validates one peer's /metrics under the
// federation timeout.
func scrapePeer(ctx context.Context, httpc *http.Client, peer string) ([]obs.ParsedFamily, error) {
	ctx, cancel := context.WithTimeout(ctx, federationTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, federationMaxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/metrics: status %d", peer, resp.StatusCode)
	}
	return obs.ParseExposition(string(data))
}

// scrapeOKFamily marks each member's scrape outcome, so a consumer can
// tell "peer is idle" from "peer is unreachable/stale".
func scrapeOKFamily(scrapes []memberScrape) obs.ParsedFamily {
	fam := obs.ParsedFamily{
		Name: "grub_cluster_scrape_ok",
		Help: "Whether the member's registry was scraped for this federated exposition (0 = down or malformed; its series are absent).",
		Type: "gauge",
	}
	for _, sc := range scrapes {
		v := 0.0
		if sc.ok {
			v = 1
		}
		fam.Samples = append(fam.Samples, obs.ParsedSample{
			Name:   fam.Name,
			Labels: []obs.LabelPair{{Name: "node", Value: sc.member}},
			Value:  v,
		})
	}
	return fam
}

// mergeScrapes folds the per-member families into one list: families
// merge by name (first member's HELP/TYPE wins; a name that changes
// type across members keeps only matching samples, so the output stays
// a valid exposition), and every sample gains a node label naming its
// source. Per-member sample order is preserved, so the merged document
// parses cleanly — no duplicate series across nodes.
func mergeScrapes(scrapes []memberScrape) []obs.ParsedFamily {
	var out []obs.ParsedFamily
	byName := make(map[string]int)
	for _, sc := range scrapes {
		if !sc.ok {
			continue
		}
		nodeLabel := obs.LabelPair{Name: "node", Value: sc.member}
		for _, f := range sc.fams {
			idx, seen := byName[f.Name]
			if !seen {
				idx = len(out)
				byName[f.Name] = idx
				out = append(out, obs.ParsedFamily{Name: f.Name, Help: f.Help, Type: f.Type})
			} else if out[idx].Type != f.Type {
				continue
			}
			for _, s := range f.Samples {
				s.Labels = append([]obs.LabelPair{nodeLabel}, s.Labels...)
				out[idx].Samples = append(out[idx].Samples, s)
			}
		}
	}
	return out
}
