package main

import (
	"time"

	"spacecdn/internal/content"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/measure"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/telemetry"
)

// The benchmark cannot drive the cmd/spacecdnd binary: it registers only the
// three serve.Workload objects, so every traffic-engine object would 404.
// These constructors build the same stack through the same public calls, in
// the order run() in cmd/spacecdnd/main.go makes them.

// Daemon defaults (serve.DefaultConfig, cmd/spacecdnd -trace-sample).
const (
	epochStep     = 15 * time.Second
	sweepInterval = 100 * time.Millisecond
	traceSample   = 0.01
)

// stackSpec says which parts of the daemon a stack has.
type stackSpec struct {
	Lifecycle bool          // attach the lifecycle manager (TTLs, pull-through fills)
	Interval  time.Duration // sweeper period; zero pins the first epoch
	Listen    bool          // open the HTTP listener on a loopback port
	Telemetry bool          // attach the telemetry bundle before serving
}

func specFor(workload string) stackSpec {
	switch workload {
	case wlDayHTTP:
		return stackSpec{Lifecycle: true, Interval: sweepInterval, Listen: true, Telemetry: true}
	case wlDayInproc:
		return stackSpec{Lifecycle: true, Interval: sweepInterval, Telemetry: true}
	default:
		return stackSpec{Telemetry: true}
	}
}

// pinned is the traced twin of a spec: same parts, epoch pinned.
func (s stackSpec) pinned() stackSpec {
	s.Interval = 0
	return s
}

// newSystem deploys a default system; every stack and every scratch system
// of the benchmark starts here.
func newSystem(spec stackSpec) (*measure.Environment, *spacecdn.System, error) {
	env, err := measure.NewEnvironment()
	if err != nil {
		return nil, nil, err
	}
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), env.Constellation, env.LSN)
	if err != nil {
		return nil, nil, err
	}
	if spec.Telemetry {
		sys.SetTelemetry(telemetry.New(traceSample))
	}
	if spec.Lifecycle {
		sys.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), env.Constellation.Total()))
	}
	return env, sys, nil
}

// placeTiers stores the placement tiers. With versioned set the copies carry
// lifecycle stamps for sim time zero (the serve workloads); otherwise they go
// through spacecdn.Apply as experiments.Traffic does on every release.
func placeTiers(sys *spacecdn.System, top []content.Object, versioned bool) error {
	for i, o := range top {
		pl := spacecdn.PerPlaneSpacing{ReplicasPerPlane: 1}
		if i < hotTier {
			pl.ReplicasPerPlane = 4
		}
		if !versioned {
			if _, err := spacecdn.Apply(sys, pl, o); err != nil {
				return err
			}
			continue
		}
		for _, id := range pl.Replicas(sys, o) {
			sys.StoreVersioned(id, o, 0)
		}
	}
	return nil
}

// stack is one running daemon-equivalent.
type stack struct {
	Env *measure.Environment
	Sys *spacecdn.System
	Srv *serve.Server
}

// startStack builds and starts a server over the inputs. It returns once the
// first request can be served.
func startStack(spec stackSpec, in *inputs, seed int64) (*stack, error) {
	env, sys, err := newSystem(spec)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Seed: seed, Step: epochStep, Interval: spec.Interval}
	if spec.Listen {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := serve.New(sys, cfg)
	if err != nil {
		return nil, err
	}
	if err := placeTiers(sys, in.Top, true); err != nil {
		return nil, err
	}
	srv.RegisterObjects(in.Catalog...)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &stack{Env: env, Sys: sys, Srv: srv}, nil
}

func (s *stack) close() error { return s.Srv.Close() }
