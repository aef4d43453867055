package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"genmapper"
	"genmapper/internal/eav"
	"genmapper/internal/gen"
	"genmapper/internal/importer"
	"genmapper/internal/server"
)

// datasets generates one release of the synthetic universe: every source
// rendered in its native format and parsed back, in import order. This is
// input generation, so it stays outside every timer.
func datasets(seed int64, scale float64) ([]*eav.Dataset, error) {
	u := gen.NewUniverse(gen.Config{Seed: seed, Scale: scale})
	var out []*eav.Dataset
	for _, name := range u.Names() {
		d, err := u.Dataset(name)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// oracleOf builds the independent model of the given datasets.
func oracleOf(ds []*eav.Dataset) *oracle {
	o := newOracle()
	for _, d := range ds {
		o.add(d)
	}
	return o
}

// importOptions are the options every workload imports with: Subsumed
// mappings are derived, as in the paper's deployment.
var importOptions = importer.Options{DeriveSubsumed: true}

// importAll runs the program's Import step for every dataset and then
// refreshes the source graph once, as System.ImportUniverse does; the
// datasets are generated beforehand so that only the import is timed. each,
// when non-nil, wraps every per-source import (the traced run times it).
func importAll(sys *genmapper.System, ds []*eav.Dataset, each func(d *eav.Dataset, imp func() error) error) ([]*importer.Stats, error) {
	var out []*importer.Stats
	for _, d := range ds {
		imp := func() error {
			st, err := importer.Import(sys.Repo(), d, importOptions)
			if err != nil {
				return fmt.Errorf("import %s: %w", d.Source.Name, err)
			}
			out = append(out, st)
			return nil
		}
		var err error
		if each != nil {
			err = each(d, imp)
		} else {
			err = imp()
		}
		if err != nil {
			return out, err
		}
	}
	return out, sys.RefreshGraph()
}

// timedBuild builds a system and returns it with the build's duration and
// the heap the system holds: heap in use after the build minus before it,
// both after a forced GC, so that the benchmark's own inputs do not count.
func timedBuild(build func() (*genmapper.System, error)) (*genmapper.System, float64, float64, error) {
	before := heapInUse()
	start := time.Now()
	sys, err := build()
	if err != nil {
		return nil, 0, 0, err
	}
	secs := time.Since(start).Seconds()
	return sys, secs, (float64(heapInUse()) - float64(before)) / 1e6, nil
}

// inMemory returns a build of an in-memory system holding ds.
func inMemory(ds []*eav.Dataset) func() (*genmapper.System, error) {
	return func() (*genmapper.System, error) {
		sys, err := genmapper.New()
		if err != nil {
			return nil, err
		}
		if _, err := importAll(sys, ds, nil); err != nil {
			return nil, err
		}
		return sys, nil
	}
}

// client is the one keep-alive HTTP client of a closed loop, talking to the
// program's own handler (server.New) over loopback.
type client struct {
	srv *httptest.Server
	hc  *http.Client
}

func serve(sys *genmapper.System) *client {
	srv := httptest.NewServer(server.New(sys))
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{srv: srv, hc: &http.Client{Transport: tr}}
}

// close stops the server after its in-flight requests and drops the
// client's idle connection.
func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.srv.Close()
}

// get issues GET path?query and returns the body and the latency from
// sending the request to receiving its last byte.
func (c *client) get(path string, query url.Values) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, c.srv.URL+path+"?"+query.Encode(), nil)
	if err != nil {
		return nil, 0, err
	}
	return c.do(req)
}

// post issues a form POST.
func (c *client) post(path string, form url.Values) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.srv.URL+path, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return c.do(req)
}

func (c *client) do(req *http.Request) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, lat, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		snippet := string(body)
		if len(snippet) > 200 {
			snippet = snippet[:200]
		}
		return body, lat, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, snippet)
	}
	return body, lat, nil
}
