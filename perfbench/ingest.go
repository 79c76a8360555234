package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/history"
	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/pool"
	"github.com/schemaevo/schemaevo/internal/serve"
)

// ingest-mix: an open loop through the proxy at a fixed rate, mixing cold
// POSTs of distinct corpus histories (heavy-tailed sizes; bodies over the
// upload limit expect 413), re-POSTs of ingested histories (dedup hits) and
// GETs of ingested-history artifacts.

const (
	// The rate and shares are assumptions with no recorded traffic behind
	// them: enough cold POSTs to keep both cores parsing, dedup hits as the
	// cheap write path, and GETs on the history read path beside them.
	mixRate = 70.0 // requests per second
	// Shares of the mix; the rest are artifact GETs.
	coldShare = 0.36
	dupShare  = 0.07
	// mixLag keeps re-POSTs and GETs behind the cold POST of their target:
	// a target is drawn from histories scheduled at least this many
	// requests earlier.
	mixLag = 40
	// postLimit is the latency past which a POST counts as failed.
	postLimit = 10 * time.Second
	// layerSample is how many cold uploads the traced run replays through
	// the library to time the ingest layers.
	layerSample = 200
)

type opKind int

const (
	opCold opKind = iota
	opDup
	opGet
)

// upload is one corpus history as a POST body, plus what the run learned.
type upload struct {
	hist *history.History
	body []byte
	over bool // body exceeds the upload limit: expect 413

	done    chan struct{} // closed once the cold POST has answered
	id      string
	profile json.RawMessage
	compat  json.RawMessage

	mu  sync.Mutex
	got map[string][sha256.Size]byte // artifact key → hash of a GET answer
}

// jsonUpload mirrors the application/json version-list upload document.
type jsonUpload struct {
	Project        string        `json:"project"`
	Path           string        `json:"path"`
	Dialect        string        `json:"dialect,omitempty"`
	ProjectCommits int           `json:"project_commits"`
	ProjectStart   time.Time     `json:"project_start"`
	ProjectEnd     time.Time     `json:"project_end"`
	Versions       []jsonVersion `json:"versions"`
}

type jsonVersion struct {
	When time.Time `json:"when"`
	SQL  string    `json:"sql"`
}

// corpusUploads generates the corpora of the given seeds and encodes every
// study-set history as an upload body, shuffled by rng.
func corpusUploads(ctx context.Context, rng *rand.Rand, corpusSeeds []int64) ([]*upload, error) {
	var ups []*upload
	for _, cs := range corpusSeeds {
		for _, p := range corpus.GenerateContext(ctx, corpus.Config{Seed: cs}) {
			if p.Intended == core.HistoryLess {
				continue
			}
			h := p.Hist
			doc := jsonUpload{
				Project: h.Project, Path: h.Path, Dialect: h.Dialect,
				ProjectCommits: h.ProjectCommits, ProjectStart: h.ProjectStart, ProjectEnd: h.ProjectEnd,
			}
			for _, v := range h.Versions {
				doc.Versions = append(doc.Versions, jsonVersion{When: v.When, SQL: v.SQL})
			}
			body, err := json.Marshal(doc)
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", h.Project, err)
			}
			ups = append(ups, &upload{
				hist: h, body: body, over: int64(len(body)) > serve.DefaultMaxUploadBytes,
				done: make(chan struct{}), got: map[string][sha256.Size]byte{},
			})
		}
	}
	rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
	return ups, nil
}

// mixOp is one scheduled request.
type mixOp struct {
	kind opKind
	up   *upload
	key  string // artifact key of a GET
}

// schedule draws the request mix: kinds by share, cold POSTs in upload
// order, re-POST and GET targets among accepted uploads scheduled at least
// mixLag requests earlier.
func schedule(rng *rand.Rand, n int, ups []*upload) []mixOp {
	ops := make([]mixOp, n)
	var coldAt []int // op index of each cold POST, in order
	nextCold := 0
	keys := ingest.ArtifactKeys()
	for i := range ops {
		u := rng.Float64()
		kind := opGet
		switch {
		case u < coldShare:
			kind = opCold
		case u < coldShare+dupShare:
			kind = opDup
		}
		if kind == opCold && nextCold >= len(ups) {
			kind = opGet // out of fresh histories
		}
		if kind != opCold {
			// Eligible targets: accepted (not over-limit) cold POSTs
			// scheduled at least mixLag requests earlier.
			var eligible []*upload
			for _, at := range coldAt {
				if at <= i-mixLag && !ops[at].up.over {
					eligible = append(eligible, ops[at].up)
				}
			}
			if len(eligible) == 0 {
				kind = opCold
			} else {
				ops[i] = mixOp{kind: kind, up: eligible[rng.Intn(len(eligible))], key: keys[rng.Intn(len(keys))]}
				continue
			}
		}
		ops[i] = mixOp{kind: opCold, up: ups[nextCold]}
		coldAt = append(coldAt, i)
		nextCold++
	}
	return ops
}

// mixCorpusSeeds lists corpus seeds 1, 2, … about enough for the run's
// expected cold POSTs (195 study-set histories each), so nearly every
// history, the few largest included, is uploaded in every run. Cold POSTs
// drawn beyond the population become GETs.
func mixCorpusSeeds(seconds int) []int64 {
	need := int(mixRate*coldShare*float64(seconds))/195 + 1
	var out []int64
	for s := int64(1); len(out) < need; s++ {
		out = append(out, s)
	}
	return out
}

func runIngestMix(ctx context.Context, e *env) error {
	corpusSeeds := mixCorpusSeeds(e.cfg.Seconds)
	dir := filepath.Join(e.cfg.Work, "stack")
	var ups []*upload
	sys, err := e.timedSetup(func() (*system, error) {
		ups = nil
		var err error
		ups, err = corpusUploads(ctx, rand.New(rand.NewSource(e.cfg.Seed)), corpusSeeds)
		if err != nil {
			return nil, err
		}
		return startSystem(ctx, dir, e.cfg.ProxyBin)
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(e.cfg.Seed + 1))
	due := arrivals(rng, mixRate, time.Duration(e.cfg.Seconds)*time.Second)
	ops := schedule(rng, len(due), ups)
	served := make([]reply, len(ops)) // timings only; bodies are dropped

	heapBase := liveHeapMB()
	before := sampleProcess(sys)
	counters := sys.counters()
	hedges0, proxied0 := proxyCounts(ctx, sys)
	outs := openLoop(ctx, due, nproc, func(i int) bool {
		var sp span
		if e.rec != nil {
			sp = e.rec.Start([]string{"post.cold", "post.dup", "get"}[ops[i].kind], 0, int64(i+1))
			defer sp.End()
		}
		ok, r := e.doMix(ctx, sys, ops[i])
		served[i] = reply{TTFB: r.TTFB, Total: r.Total}
		return ok
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	after := sampleProcess(sys)
	e.logf("mix window done: %d requests", len(outs))

	var coldLat, readLat, coldTTFB []float64
	for i, o := range outs {
		op := ops[i]
		limit := postLimit
		if op.kind == opGet {
			limit = readLimit
		}
		e.check(o.OK && o.Latency() <= limit, "%s %s: ok=%v latency %v",
			[]string{"cold POST", "re-POST", "GET"}[op.kind], op.up.hist.Project, o.OK, o.Latency())
		// Latencies here run from sending to the last byte: with only
		// nproc connections, a request queued in the client behind a
		// multi-megabyte upload would otherwise time the client, not the
		// stack. The open loop still offers the load on schedule, and the
		// limit checks above use the time from the due time.
		ms := float64(served[i].Total.Nanoseconds()) / 1e6
		switch {
		case op.kind == opCold && !op.up.over:
			coldLat = append(coldLat, ms)
			coldTTFB = append(coldTTFB, float64(served[i].TTFB.Nanoseconds())/1e6)
		case op.kind == opGet:
			readLat = append(readLat, ms)
		}
	}
	e.set("latency_ms", median(coldLat))
	e.set("gen.tail_ms", tail(coldLat))
	e.set("gen.first_byte_ms", median(coldTTFB))
	e.set("gen.read_tail_ms", tail(readLat))
	late := generatorLateMS(outs)
	outs, due, served = nil, nil, nil
	var accepted []*upload
	for _, op := range ops {
		if op.kind == opCold && !op.up.over && op.up.id != "" {
			accepted = append(accepted, op.up)
		}
	}
	ops = nil

	if err := e.verifyIngested(ctx, accepted); err != nil {
		return err
	}
	e.logf("verified %d ingested histories", len(accepted))
	if !e.cfg.Trace {
		return nil
	}
	// Retained per accepted history: the daemon's cache, id registry and
	// store index, after GC.
	e.set("serve.heap_mb", (liveHeapMB()-heapBase)/float64(max(len(accepted), 1)))
	e.setProcessRows(before, after)
	e.setServeRows(ctx, sys, counters, hedges0, proxied0)
	e.set("gen.late_p99_ms", tail(late))
	if err := e.ingestLayers(ctx, sys, accepted); err != nil {
		return err
	}
	anchor := mean(coldLat) / 1e3
	e.set("anchor_s", anchor)
	e.set("remainder_s", anchor-(e.metrics["ingest.prepare_ms"]+e.metrics["ingest.run_ms"])/1e3-e.metrics["proxy.hop_us"]/1e6)
	return nil
}

// postResponse is the part of the POST /v1/histories answer the checks read.
type postResponse struct {
	ID            string          `json:"id"`
	Created       bool            `json:"created"`
	Profile       json.RawMessage `json:"profile"`
	Compatibility json.RawMessage `json:"compatibility"`
}

// doMix performs one scheduled request and checks its answer. It returns
// whether the answer was right, and the exchange.
func (e *env) doMix(ctx context.Context, sys *system, op mixOp) (bool, reply) {
	u := op.up
	if op.kind != opCold {
		select { // the target's cold POST must have answered first
		case <-u.done:
		case <-ctx.Done():
			return false, reply{}
		}
	}
	var r reply
	var err error
	if op.kind == opGet {
		r, err = fetch(ctx, loadClient, http.MethodGet,
			fmt.Sprintf("%s/v1/histories/%s/artifacts/%s", sys.proxy, u.id, op.key), "", nil)
	} else {
		r, err = fetch(ctx, loadClient, http.MethodPost, sys.proxy+"/v1/histories", "application/json", u.body)
	}
	if err != nil {
		if op.kind == opCold {
			close(u.done)
		}
		return false, r
	}
	body := e.body(r.Body)
	switch op.kind {
	case opCold:
		defer close(u.done)
		if u.over {
			return r.Status == http.StatusRequestEntityTooLarge, r
		}
		var pr postResponse
		if r.Status != http.StatusCreated || json.Unmarshal(body, &pr) != nil || !ingest.ValidID(pr.ID) || !pr.Created {
			return false, r
		}
		u.id, u.profile, u.compat = pr.ID, pr.Profile, pr.Compatibility
		return true, r
	case opDup:
		var pr postResponse
		return r.Status == http.StatusOK && json.Unmarshal(body, &pr) == nil && pr.ID == u.id && !pr.Created, r
	default:
		if r.Status != http.StatusOK {
			return false, r
		}
		sum := sha256.Sum256(body)
		u.mu.Lock()
		defer u.mu.Unlock()
		if prev, ok := u.got[op.key]; ok && prev != sum {
			return false, r // two GETs of one artifact disagree
		}
		u.got[op.key] = sum
		return true, r
	}
}

// verifyIngested checks every accepted history against the study pipeline
// and every artifact a GET returned against what it must be:
//   - profile taxon and measures equal the study's (history.Analyze +
//     core.Measure + core.Classify on the corpus history);
//   - profile.json and compatibility.json equal the POST's embedded copies;
//   - heartbeat.csv is the study measures' heartbeat;
//   - history.json hashes to the history's id (its content address).
func (e *env) verifyIngested(ctx context.Context, ups []*upload) error {
	return pool.Map(ctx, pool.Workers(0), len(ups), func(i int) error {
		u := ups[i]
		a, err := history.Analyze(u.hist)
		if !e.check(err == nil, "%s: study analysis: %v", u.hist.Project, err) {
			return nil
		}
		m := core.Measure(a, core.DefaultReedLimit)
		var prof ingest.Profile
		if !e.check(json.Unmarshal(u.profile, &prof) == nil, "%s: profile undecodable", u.hist.Project) {
			return nil
		}
		want, _ := json.Marshal(m)
		got, _ := json.Marshal(prof.Measures)
		e.check(prof.Taxon == core.Classify(m).String() && bytes.Equal(want, got),
			"%s: ingest profile (taxon %q) disagrees with the study (taxon %q)", u.hist.Project, prof.Taxon, core.Classify(m))

		u.mu.Lock()
		defer u.mu.Unlock()
		for key, sum := range u.got {
			var ok bool
			switch key {
			case ingest.ArtifactHistory:
				ok = hex.EncodeToString(sum[:]) == u.id
			case ingest.ArtifactHeartbeat:
				ok = sum == sha256.Sum256([]byte(heartbeatCSV(m)))
			case ingest.ArtifactProfile:
				ok = sum == sha256.Sum256(indentJSON(u.profile))
			case ingest.ArtifactCompatibility:
				ok = sum == sha256.Sum256(indentJSON(u.compat))
			}
			e.check(ok, "%s: served %s is wrong", u.hist.Project, key)
		}
		return nil
	})
}

// indentJSON re-renders an embedded artifact the way the daemon stores it
// (one-space indent, trailing newline).
func indentJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", " "); err != nil {
		return nil
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// heartbeatCSV renders the heartbeat artifact from a history's measures.
func heartbeatCSV(m core.Measures) string {
	var b strings.Builder
	b.WriteString("transition,when,expansion,maintenance,activity\n")
	for _, beat := range m.Heartbeat {
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d\n",
			beat.TransitionID, beat.When.UTC().Format(time.RFC3339), beat.Expansion, beat.Maintenance, beat.Activity())
	}
	return b.String()
}

// ingestLayers replays a sample of the accepted uploads through the ingest
// library (ingest.prepare, ingest.run), history.Analyze and the parse/diff
// split, reporting per-upload means; then probes the serving layers on
// history artifacts.
func (e *env) ingestLayers(ctx context.Context, sys *system, ups []*upload) error {
	sample := ups[:min(len(ups), layerSample)]
	n := len(sample)
	if n == 0 {
		return nil
	}
	hists := e.replayIngest(ctx, sample)
	for _, h := range hists {
		e.rec.Time("history.analyze", 0, 0, func(int64) { _, _ = history.Analyze(h) })
	}
	if err := e.splitHistories(ctx, 0, 0, hists); err != nil {
		return err
	}
	e.setLayerMeans([]string{"history.analyze"}, n)
	e.perOp([]string{"sqlparse.parse_s", "diff.compute_s", "sqlparse.bytes", "diff.transitions"}, n)
	e.setRepeatFrac()

	var paths []string
	for _, u := range sample {
		for _, k := range ingest.ArtifactKeys() {
			paths = append(paths, fmt.Sprintf("/v1/histories/%s/artifacts/%s", u.id, k))
		}
		if len(paths) >= 200 {
			break
		}
	}
	for _, u := range sample[:min(n, 20)] {
		key := ingest.Key(u.id)
		var err error
		e.rec.Time("store.get", 0, 0, func(int64) { _, err = sys.hists.Get(ctx, key) })
		e.check(err == nil, "%s: stored history: %v", u.hist.Project, err)
	}
	e.setLayerMeans([]string{"store.get"}, min(n, 20))
	e.probeLayers(ctx, sys, paths)
	return nil
}

// replayIngest runs accepted uploads through ingest.Prepare and ingest.Run,
// each call in its own span, checks that the library derives the id the
// daemon answered, and reports the per-upload ingest.* rows. It returns the
// histories it replayed.
func (e *env) replayIngest(ctx context.Context, ups []*upload) []*history.History {
	var bodyBytes float64
	var hists []*history.History
	for _, u := range ups {
		var up *ingest.Upload
		var err error
		e.rec.Time("ingest.prepare", 0, 0, func(int64) { up, err = ingest.Prepare("application/json", u.body) })
		if !e.check(err == nil && up.ID == u.id, "%s: library prepare: %v", u.hist.Project, err) {
			continue
		}
		e.rec.Time("ingest.run", 0, 0, func(int64) { _, err = ingest.Run(ctx, up) })
		e.check(err == nil, "%s: library run: %v", u.hist.Project, err)
		bodyBytes += float64(len(u.body))
		hists = append(hists, u.hist)
	}
	n := float64(max(len(ups), 1))
	e.set("ingest.prepare_ms", e.rec.Total("ingest.prepare").Seconds()*1e3/n)
	e.set("ingest.run_ms", e.rec.Total("ingest.run").Seconds()*1e3/n)
	e.set("ingest.upload_bytes", bodyBytes/n)
	return hists
}

// ingestProbeSize is how many histories cold-seed's ingest probe uploads.
const ingestProbeSize = 50

// ingestProbe puts the ingest checks into every cold-seed run. Corpus seed
// 1's histories go through the proxy: each body over the upload limit must
// answer 413; a sample of the others must answer 201, then 200 with the
// same id on a re-POST, and every artifact of each must be served. The
// profiles and artifacts are then checked against the study pipeline
// (verifyIngested). A traced run also replays the sample through the
// ingest library for the ingest.* rows; the POSTs give
// serve.ingest_dedup_frac.
func (e *env) ingestProbe(ctx context.Context, sys *system) error {
	ups, err := corpusUploads(ctx, rand.New(rand.NewSource(e.cfg.Seed)), []int64{1})
	if err != nil {
		return err
	}
	var sample []*upload
	over := 0
	for _, u := range ups {
		if u.over {
			over++
			ok, r := e.doMix(ctx, sys, mixOp{kind: opCold, up: u})
			e.check(ok, "%s: over-limit POST of %d bytes: status %d, want 413", u.hist.Project, len(u.body), r.Status)
		} else if len(sample) < ingestProbeSize {
			sample = append(sample, u)
		}
	}
	for _, u := range sample {
		ok, r := e.doMix(ctx, sys, mixOp{kind: opCold, up: u})
		e.check(ok, "%s: cold POST: status %d", u.hist.Project, r.Status)
		ok, r = e.doMix(ctx, sys, mixOp{kind: opDup, up: u})
		e.check(ok, "%s: re-POST: status %d", u.hist.Project, r.Status)
		for _, k := range ingest.ArtifactKeys() {
			ok, r = e.doMix(ctx, sys, mixOp{kind: opGet, up: u, key: k})
			e.check(ok, "%s: GET %s: status %d", u.hist.Project, k, r.Status)
		}
	}
	if err := e.verifyIngested(ctx, sample); err != nil {
		return err
	}
	e.logf("ingest probe: %d histories uploaded and verified, %d over the limit", len(sample), over)
	if e.rec != nil {
		e.replayIngest(ctx, sample)
	}
	return nil
}
