package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"grub/internal/kvstore"
	"grub/internal/obs"
	"grub/internal/shard"
)

// Gateway persistence: a data directory holds one store per feed (each a
// per-shard kvstore op log + snapshots, see internal/shard) plus a feed
// registry manifest, feeds.json, recording every hosted feed's config. On
// start the gateway reads the manifest and rebuilds each feed, which
// recovers its durable state; on create/close the manifest is rewritten
// atomically (temp file + rename) before the store changes, so a crash at
// any point leaves manifest and stores consistent.

// GatewayOptions configures a gateway.
type GatewayOptions struct {
	// DataDir enables persistence: every feed's applied batches are logged
	// durably under DataDir and recovered on the next start. Empty means
	// in-memory (feeds die with the process).
	DataDir string
	// SnapshotEvery is the automatic per-shard snapshot cadence in applied
	// batches (0 = snapshot only on graceful shutdown and explicit
	// requests).
	SnapshotEvery int
	// SyncWrites fsyncs every durable log append.
	SyncWrites bool
	// ReplRetain caps each shard's in-memory replication log (entries
	// served to followers from GET /repl/.../log); 0 means
	// shard.DefaultReplRetain. Followers further behind bootstrap from a
	// snapshot.
	ReplRetain int
}

// manifest is the serialized feed registry.
type manifest struct {
	Feeds []FeedConfig `json:"feeds"`
}

const manifestName = "feeds.json"

// NewGatewayWithOptions returns a gateway, recovering every manifest-listed
// feed from opts.DataDir when persistence is enabled.
func NewGatewayWithOptions(opts GatewayOptions) (*Gateway, error) {
	g := &Gateway{opts: opts, feeds: make(map[string]*feedEntry), start: time.Now()}
	g.reg = obs.NewRegistry()
	g.pipeline = obs.NewPipeline(g.reg)
	g.load = obs.NewLoadTracker()
	if !g.persistent() {
		return g, nil
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "feeds"), 0o755); err != nil {
		return nil, fmt.Errorf("server: create data dir: %w", err)
	}
	m, err := g.readManifest()
	if err != nil {
		return nil, err
	}
	for _, cfg := range m.Feeds {
		entry := &feedEntry{cfg: cfg, dir: g.feedDir(cfg.ID)}
		sf, err := newShardedFeed(cfg, g.persistOptions(entry.dir), opts.ReplRetain, g.pipeline.Feed(cfg.ID), g.load.Meter(cfg.ID))
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("server: recover feed %q: %w", cfg.ID, err)
		}
		entry.sf = sf
		g.feeds[cfg.ID] = entry
	}
	return g, nil
}

// persistent reports whether this gateway has a data directory.
func (g *Gateway) persistent() bool { return g.opts.DataDir != "" }

// DataDir returns the gateway's data directory ("" for in-memory).
func (g *Gateway) DataDir() string { return g.opts.DataDir }

// persistOptions builds one feed's shard-level persistence config (without
// the Restore callback, which newShardedFeed attaches per config). Every
// feed's stores share the gateway registry's grub_kv_* and
// grub_persist_snapshot_* series — registration is idempotent, so repeated
// calls hand back the same counters.
func (g *Gateway) persistOptions(dir string) *shard.PersistOptions {
	return &shard.PersistOptions{
		Dir:           dir,
		SnapshotEvery: g.opts.SnapshotEvery,
		SyncWrites:    g.opts.SyncWrites,
		Metrics:       kvstore.NewMetrics(g.reg),
		Snapshots:     shard.NewSnapshotMetrics(g.reg),
	}
}

// feedDir maps a feed ID to its store directory. IDs made of path-safe
// characters keep their name under a "d-" prefix; anything else is
// hex-encoded under "x-". The prefixes keep the two namespaces disjoint —
// no ID can escape the data directory or collide with another ID's
// encoding.
func (g *Gateway) feedDir(id string) string {
	return filepath.Join(g.opts.DataDir, "feeds", feedDirName(id))
}

func feedDirName(id string) string {
	safe := id != ""
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-' || r == '_' || r == '.':
		default:
			safe = false
		}
	}
	if safe {
		return "d-" + id
	}
	return fmt.Sprintf("x-%x", id)
}

func (g *Gateway) manifestPath() string {
	return filepath.Join(g.opts.DataDir, manifestName)
}

func (g *Gateway) readManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile(g.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("server: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("server: parse manifest: %w", err)
	}
	return m, nil
}

// writeManifest installs the given registry atomically. Callers hold
// createMu, so manifest writes never interleave.
func (g *Gateway) writeManifest(m manifest) error {
	sort.Slice(m.Feeds, func(i, j int) bool { return m.Feeds[i].ID < m.Feeds[j].ID })
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode manifest: %w", err)
	}
	tmp := g.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("server: write manifest: %w", err)
	}
	if err := os.Rename(tmp, g.manifestPath()); err != nil {
		return fmt.Errorf("server: install manifest: %w", err)
	}
	return nil
}

// writeManifestWith rewrites the manifest with cfg added (replacing any
// entry with the same ID).
func (g *Gateway) writeManifestWith(cfg FeedConfig) error {
	m, err := g.readManifest()
	if err != nil {
		return err
	}
	kept := m.Feeds[:0]
	for _, c := range m.Feeds {
		if c.ID != cfg.ID {
			kept = append(kept, c)
		}
	}
	m.Feeds = append(kept, cfg)
	return g.writeManifest(m)
}

// writeManifestWithout rewrites the manifest with the given feed removed.
func (g *Gateway) writeManifestWithout(id string) error {
	m, err := g.readManifest()
	if err != nil {
		return err
	}
	kept := m.Feeds[:0]
	for _, c := range m.Feeds {
		if c.ID != id {
			kept = append(kept, c)
		}
	}
	m.Feeds = kept
	return g.writeManifest(m)
}
