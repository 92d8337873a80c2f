package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/measure"
	"spacecdn/internal/routing"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// The traced pass. Spans are recorded from the benchmark's own files, around
// calls into each layer's public functions: a root span around the request,
// then the stage calls re-executed with the same inputs as shadow children.
// Spans inside the program are a later change. End-to-end metrics never come
// from here; they are measured with tracing off.

type stageID uint8

const (
	stageRoot stageID = iota
	stageBestVisible
	stageReplicaSet
	stageCachePeek
	stageNearestInSet
	stagePathTree
	stageResolvePath
	numStages
)

var stageNames = [numStages]string{
	stageRoot:         "request",
	stageBestVisible:  "constellation.BestVisible",
	stageReplicaSet:   "spacecdn.ReplicaSet",
	stageCachePeek:    "cache.Peek",
	stageNearestInSet: "routing.NearestInSet",
	stagePathTree:     "constellation.PathTree",
	stageResolvePath:  "lsn.ResolvePath",
}

var stageMetric = [numStages]string{
	stageBestVisible:  "trace.stage_ns.best_visible",
	stageReplicaSet:   "trace.stage_ns.replica_set",
	stageCachePeek:    "trace.stage_ns.cache_peek",
	stageNearestInSet: "trace.stage_ns.nearest_in_set",
	stagePathTree:     "trace.stage_ns.path_tree",
	stageResolvePath:  "trace.stage_ns.lsn_resolve_path",
}

// span is one timed call. Parent is the index of the request's root span
// (-1 on a root); Shadow marks a re-execution beside the request, not
// inside it.
type span struct {
	Stage      stageID
	Shadow     bool
	Pass       uint8
	Req        int32
	Parent     int32
	Start, End int64 // ns since the traced pass began
}

// stageRow is one line of the stage table.
type stageRow struct {
	Name  string  `json:"name"`
	Ns    float64 `json:"ns_per_request"`
	Share float64 `json:"share_of_root"`
}

// twin is the pinned copy of a workload's stack the traced pass and the
// per-layer timings run on: same placement, epoch pinned at sim time zero.
type twin struct {
	env   *measure.Environment
	sys   *spacecdn.System
	snap  *constellation.Snapshot
	srv   *serve.Server // nil for sim-day, which has no serving layer
	sc    *serve.Scratch
	rng   *stats.Rand
	close func() error
}

func newTwin(cfg runConfig, in *inputs) (*twin, error) {
	if cfg.Workload == wlSimDay {
		env, sys, err := newSystem(stackSpec{})
		if err != nil {
			return nil, err
		}
		if err := placeTiers(sys, in.Top, false); err != nil {
			return nil, err
		}
		snap := env.Constellation.Snapshot(0)
		snap.ISLGraph()
		return &twin{env: env, sys: sys, snap: snap, rng: stats.NewRand(cfg.Seed), close: func() error { return nil }}, nil
	}
	spec := specFor(cfg.Workload).pinned()
	spec.Listen = true
	st, err := startStack(spec, in, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sc := st.Srv.AcquireScratch()
	return &twin{
		env: st.Env, sys: st.Sys, snap: st.Srv.Epoch().Snapshot(), srv: st.Srv, sc: sc, rng: stats.NewRand(cfg.Seed),
		close: func() error {
			st.Srv.ReleaseScratch(sc)
			return st.close()
		},
	}, nil
}

// resolve is the request as the workload issues it: ResolveOnce on the serve
// workloads, System.Resolve on sim-day.
func (t *twin) resolve(req spacecdn.Request) (spacecdn.Resolution, error) {
	if t.srv != nil {
		r, err := t.srv.ResolveOnce(req, t.sc)
		return r.Res, err
	}
	return t.sys.Resolve(req.Client, req.ISO2, req.Obj, t.snap, t.rng)
}

// tracer holds the spans of one traced pass in memory until the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) add(stage stageID, pass uint8, req, parent int32, start, end int64) int32 {
	tr.spans = append(tr.spans, span{Stage: stage, Shadow: stage != stageRoot, Pass: pass, Req: req, Parent: parent, Start: start, End: end})
	return int32(len(tr.spans) - 1)
}

// trace replays the requests once: a root span per request, then its shadow
// children. It returns the pass's wall time.
func (tr *tracer) trace(t *twin, reqs []spacecdn.Request, pass uint8) (time.Duration, error) {
	g := t.snap.ISLGraph()
	maxHops := t.sys.Config().MaxISLSearchHops
	begin := tr.now()
	for i := range reqs {
		req := &reqs[i]
		id := int32(i)
		t0 := tr.now()
		res, err := t.resolve(*req)
		t1 := tr.now()
		if err != nil {
			return 0, fmt.Errorf("traced request %d: %w", i, err)
		}
		root := tr.add(stageRoot, pass, id, -1, t0, t1)

		s0 := tr.now()
		up, _ := t.snap.BestVisible(req.Client)
		s1 := tr.now()
		tr.add(stageBestVisible, pass, id, root, s0, s1)
		members := t.sys.ReplicaSet(req.Obj.ID)
		s2 := tr.now()
		tr.add(stageReplicaSet, pass, id, root, s1, s2)
		t.sys.CacheOf(up.ID).Peek(cache.Key(req.Obj.ID))
		s3 := tr.now()
		tr.add(stageCachePeek, pass, id, root, s2, s3)
		if res.Source != spacecdn.SourceOverhead {
			g.NearestInSet(routing.NodeID(up.ID), maxHops, members, nil)
			s4 := tr.now()
			tr.add(stageNearestInSet, pass, id, root, s3, s4)
			s3 = s4
		}
		switch res.Source {
		case spacecdn.SourceISL:
			t.snap.PathTree(up.ID)
			tr.add(stagePathTree, pass, id, root, s3, tr.now())
		case spacecdn.SourceGround:
			if _, err := t.env.LSN.ResolvePath(req.Client, req.ISO2, t.snap); err != nil {
				return 0, fmt.Errorf("shadow ResolvePath for request %d: %w", i, err)
			}
			tr.add(stageResolvePath, pass, id, root, s3, tr.now())
		}
	}
	return time.Duration(tr.now() - begin), nil
}

// stageMeans sums one pass's spans by stage and divides by its requests.
func (tr *tracer) stageMeans(pass uint8, requests int) (means [numStages]float64, rootHist *hist) {
	rootHist = newHist()
	for _, s := range tr.spans {
		if s.Pass != pass {
			continue
		}
		means[s.Stage] += float64(s.End - s.Start)
		if s.Stage == stageRoot {
			rootHist.add(s.End - s.Start)
		}
	}
	for i := range means {
		means[i] /= float64(requests)
	}
	return means, rootHist
}

// write stores the spans as rows under a column header, so a file of a few
// hundred thousand spans stays a few megabytes.
func (tr *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns since the traced pass began\",\"names\":[", workload)
	for i, n := range stageNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"columns\":[\"span\",\"name\",\"start\",\"end\",\"parent\",\"request\",\"pass\",\"shadow\"],\"spans\":[\n")
	var b []byte
	for i, s := range tr.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Stage), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Req), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Pass), 10)
		if s.Shadow {
			b = append(b, ",1]"...)
		} else {
			b = append(b, ",0]"...)
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPass builds the twin, replays the first requests of the stream twice
// (cold path memo, then warm) with spans, once more without, and then takes
// the per-layer timings on the same twin.
func tracedPass(cfg runConfig, res *workloadResult, in *inputs) error {
	t, err := newTwin(cfg, in)
	if err != nil {
		return err
	}
	defer func() { _ = t.close() }()
	reqs := in.Stream
	if len(reqs) > cfg.Scale.TraceReqs {
		reqs = reqs[:cfg.Scale.TraceReqs]
	}
	tr := &tracer{base: time.Now(), spans: make([]span, 0, 2*6*len(reqs))}
	if _, err := tr.trace(t, reqs, 0); err != nil {
		return err
	}
	tracedWall, err := tr.trace(t, reqs, 1)
	if err != nil {
		return err
	}
	begin := time.Now()
	for i := range reqs {
		if _, err := t.resolve(reqs[i]); err != nil {
			return fmt.Errorf("untraced request %d: %w", i, err)
		}
	}
	untracedWall := time.Since(begin)

	cold, _ := tr.stageMeans(0, len(reqs))
	warm, rootHist := tr.stageMeans(1, len(reqs))
	root := warm[stageRoot]
	self := root
	for s := stageRoot + 1; s < numStages; s++ {
		self -= warm[s]
		res.setLayer(stageMetric[s], warm[s])
		res.Stages = append(res.Stages, stageRow{Name: stageNames[s], Ns: warm[s], Share: warm[s] / root})
	}
	res.Stages = append(res.Stages, stageRow{Name: "spacecdn (self)", Ns: self, Share: self / root})
	res.Stages = append(res.Stages, stageRow{Name: "request (root span)", Ns: root, Share: 1})
	res.setLayer("trace.root_ns.cold", cold[stageRoot])
	res.setLayer("trace.root_ns.warm", root)
	res.setLayer("spacecdn.self_ns", self)
	res.setLayer("spacecdn.attributed_share", (root-self)/root)
	res.setLayer("trace.overhead_share", 1-untracedWall.Seconds()/tracedWall.Seconds())
	if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), cfg.Workload); err != nil {
		return fmt.Errorf("writing the span file: %w", err)
	}
	return layerTimings(cfg, res, t, in, reqs, rootHist)
}
