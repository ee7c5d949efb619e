package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
)

// cluster is the shipping topology in-process: one gateway over replicas
// pipeserved replicas, each on its own loopback listener.
type cluster struct {
	url     string
	servers []*httptest.Server // replicas first, gateway last
}

// startCluster builds the cluster and waits until the gateway answers its
// readiness probe. With a tracer, every seam the tracer wraps is wrapped;
// without one, nothing is set beyond what pipeserved and pipegateway set
// by default, except the replicas' cache cap.
func startCluster(client *http.Client, t *tracer) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, replicas)
	for i := range urls {
		var h http.Handler = server.New(server.Config{CacheCap: cacheCap, Timeout: 30 * time.Second})
		if t != nil {
			h = t.handler(spanServer, h)
		}
		ts := httptest.NewServer(h)
		c.servers = append(c.servers, ts)
		urls[i] = ts.URL
	}
	cfg := gateway.Config{Replicas: urls}
	if t != nil {
		cfg.Client = &http.Client{
			Timeout:   gateway.DefaultClientTimeout,
			Transport: &transport{t: t, base: http.DefaultTransport},
		}
		cfg.Router = router{t: t, Router: gateway.NewRing(replicas, 0)}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	var h http.Handler = gw
	if t != nil {
		h = t.handler(spanGateway, gw)
	}
	ts := httptest.NewServer(h)
	c.servers = append(c.servers, ts)
	c.url = ts.URL
	resp, err := client.Get(c.url + "/readyz")
	if err != nil {
		c.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.close()
		return nil, fmt.Errorf("gateway not ready: %s", resp.Status)
	}
	return c, nil
}

// close stops the gateway first, then the replicas, waiting for in-flight
// requests, and drops the idle upstream connections left to them.
func (c *cluster) close() {
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// clusterStats is the slice of the gateway's /stats the benchmark reads.
type clusterStats struct {
	Rerouted int64 `json:"rerouted"`
	Retried  int64 `json:"retried"`
	Shed     int64 `json:"shed"`
	Merged   struct {
		Shed        int64 `json:"shed"`
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
		Evictions   int64 `json:"evictions"`
		PlanHits    int64 `json:"planHits"`
		PlanMisses  int64 `json:"planMisses"`
	} `json:"merged"`
}

func (c *cluster) stats(client *http.Client) (clusterStats, error) {
	var st clusterStats
	resp, err := client.Get(c.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("gateway /stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding gateway /stats: %w", err)
	}
	return st, nil
}
