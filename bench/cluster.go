package main

import (
	"errors"
	"fmt"
	"net"

	"leap"
	"leap/bench/layers"
	"leap/bench/netx"
)

const agents = 2

// cluster is one workload's system under test: two agents served on
// loopback TCP behind counting listeners (and, for a far workload, a
// delay-line proxy each), a host dialed to them, and the Memory on top.
type cluster struct {
	listeners []*netx.Listener
	served    []chan struct{}
	proxies   []*netx.Proxy
	// traced holds the span-recording wrappers of a traced run; an untraced
	// run hands the dialed transports to the host bare.
	traced []*layers.Transport
	host   *leap.RemoteHost
	mem    *leap.Memory
}

// startCluster brings the standard set-up up. On error everything already
// started is shut down again.
func startCluster(sp *spec, seed uint64, tracer *layers.Tracer, traced bool) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	transports := make([]leap.RemoteTransport, agents)
	for i := 0; i < agents; i++ {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return c, fmt.Errorf("agent %d: listen: %w", i, err)
		}
		l := netx.Listen(raw, tracer.Epoch)
		c.listeners = append(c.listeners, l)
		done := make(chan struct{})
		c.served = append(c.served, done)
		agent := leap.NewRemoteAgent(1024, 0)
		go func() {
			defer close(done)
			_ = agent.Serve(l) // returns the accept error once l is closed
		}()
		addr := l.Addr().String()
		if sp.delay > 0 {
			p, err := netx.NewProxy(addr)
			if err != nil {
				return c, fmt.Errorf("agent %d: %w", i, err)
			}
			c.proxies = append(c.proxies, p)
			addr = p.Addr()
		}
		tr, err := leap.DialRemoteAgent(addr)
		if err != nil {
			return c, fmt.Errorf("agent %d: %w", i, err)
		}
		if traced {
			w := tracer.Wrap(tr)
			c.traced = append(c.traced, w)
			tr = w
		}
		transports[i] = tr
	}
	c.host, err = leap.NewRemoteHost(leap.RemoteHostConfig{
		SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: seed,
	}, transports)
	if err != nil {
		for _, tr := range transports {
			tr.Close()
		}
		return c, fmt.Errorf("host: %w", err)
	}
	opts := []leap.Option{
		leap.WithRemoteHost(c.host),
		leap.WithCacheCapacity(sp.capacity),
		leap.WithQueueDepth(8),
		leap.WithSeed(seed),
	}
	if sp.shards > 1 {
		opts = append(opts, leap.WithShards(sp.shards))
	}
	if sp.ztierBytes > 0 {
		opts = append(opts, leap.WithCompressedTier(sp.ztierBytes))
	}
	c.mem, err = leap.Open(opts...)
	if err != nil {
		return c, fmt.Errorf("open: %w", err)
	}
	return c, nil
}

// close flushes and shuts the cluster down, client side first, and returns
// once the proxies' goroutines and the agents' accept loops have ended.
func (c *cluster) close() error {
	var errs []error
	if c.mem != nil {
		errs = append(errs, c.mem.Close())
	}
	if c.host != nil {
		errs = append(errs, c.host.Close())
	}
	for _, p := range c.proxies {
		errs = append(errs, p.Close())
	}
	for _, l := range c.listeners {
		errs = append(errs, l.Close())
	}
	for _, done := range c.served {
		<-done
	}
	return errors.Join(errs...)
}

// counters sums the traffic of all listeners.
func (c *cluster) counters() netx.Counters {
	var sum netx.Counters
	for _, l := range c.listeners {
		sum = sum.Add(l.Counters())
	}
	return sum
}
