package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"spnet/internal/content"
	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/metrics"
	"spnet/internal/p2p"
	"spnet/internal/stats"
	"spnet/internal/transfer"
)

// The fetch workload's fixed shape: every super-peer serves the same store
// of fixed-size files with no transfer rate cap.
const (
	storeFiles = 32
	fileSize   = 1 << 20
	chunkSize  = transfer.DefaultChunkSize
	// Set-up hashes the whole store, about a third of a second.
	fetchSetups = 5
)

// storeTitles draws distinct titles for the shared store.
func storeTitles(seed uint64, lib *content.Library) []string {
	rng := stats.NewRNG(seed).Split(saltStore)
	seen := make(map[string]bool)
	var out []string
	for len(out) < storeFiles {
		t := strings.Join(lib.SampleTitle(rng), " ")
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// fetchNumbers are one measured pass of the fetch workload. Each sample is
// one download: due is when it began, done when its verified copy arrived,
// and ttlh its time in milliseconds, discovery included.
type fetchNumbers struct {
	phaseSummary
	unverified int
	elapsed    []float64 // transfer.Fetch seconds
	retried    int
	bytes      int64
	sent       int
}

// p50 is the median download time, as a median over windows.
func (n fetchNumbers) p50() float64 {
	return medianLatency([]phaseSummary{n.phaseSummary}, latencyWindow, 0.5, true)
}

// mibps is verified MiB per wall second of the phase, discovery included.
func (n fetchNumbers) mibps() float64 {
	return float64(n.bytes) / (1 << 20) / n.end.Sub(n.start).Seconds()
}

// cpuPerDownload is the process CPU milliseconds per download attempted.
func (n fetchNumbers) cpuPerDownload() float64 { return cpuPerQuery([]phaseSummary{n.phaseSummary}) }

// mibPerCPUSecond is verified MiB per process CPU second of the phase.
func (n fetchNumbers) mibPerCPUSecond() float64 { return float64(n.bytes) / (1 << 20) / n.cpu }

func runFetch(cfg runConfig) (*result, error) {
	lib := content.DefaultLibrary()
	titles := storeTitles(cfg.seed, lib)
	t := newTracker(cfg.seed)
	var store *transfer.Store
	var hashes map[uint32][sha256.Size]byte
	// Each set-up builds the store and precomputes every file's hash; the
	// measured fleet's store is the first one.
	spec := func() fleetSpec {
		st := transfer.NewStore(transfer.StoreOptions{ChunkSize: chunkSize, MinFileSize: fileSize, MaxFileSize: fileSize})
		h := make(map[uint32][sha256.Size]byte, len(titles))
		for _, title := range titles {
			f := st.Add(title)
			h[f.Index] = transfer.ContentHash(title, f.Size)
		}
		if store == nil {
			store, hashes = st, h
		}
		return fleetSpec{node: p2p.Options{Content: st}, storeFiles: len(titles), wire: loadConns()}
	}
	var setups setupTimes
	f, err := setups.start(spec, cfg.seed, t)
	if err != nil {
		return nil, err
	}
	defer f.close()
	fmt.Fprintf(cfg.out, "fetch: fleet %d×%d, store %d files × %d B, chunk %d B, up to %d sources per download\n",
		numClusters, numPartners, storeFiles, fileSize, chunkSize, loadConns())

	ref := index.New()
	for _, sf := range store.Files() {
		if err := ref.Add(index.DocID{File: sf.Index}, strings.Fields(sf.Title)); err != nil {
			return nil, err
		}
	}
	var ports []uint16
	for _, sp := range f.live.SuperPeers() {
		port, err := addrPort(sp.Addr)
		if err != nil {
			return nil, err
		}
		ports = append(ports, port)
	}
	// Every super-peer answers for every matching store file, from its own
	// listen address.
	expect := func(m index.Match) []resultKey {
		out := make([]resultKey, len(ports))
		for i, p := range ports {
			out[i] = resultKey{port: p, file: m.Doc.File}
		}
		return out
	}
	picks := stats.NewRNG(cfg.seed).Split(saltDownloads)
	files := store.Files()
	nm := metrics.NewNodeMetrics()
	var discovered [][]string
	phase := 0

	measure := func(dur time.Duration) fetchNumbers {
		phase++
		var n fetchNumbers
		sent0 := t.sentCount()
		start, cpu0 := time.Now(), cpuTime()
		end := start.Add(dur)
		for seq := 0; time.Now().Before(end); seq++ {
			file := files[picks.Intn(len(files))]
			terms := strings.Fields(file.Title)
			discovered = append(discovered, terms)
			want := make(map[resultKey]string)
			for _, m := range ref.Search(terms) {
				for _, k := range expect(m) {
					want[k] = strings.Join(m.Terms, " ")
				}
			}
			tr := t.tracer()
			began := time.Now()
			dl := tr.Begin("loadgen.download", 0, uint64(seq))
			n.attempted++
			ok := download(f, t, phase, seq, file, want, dl, nm, hashes, &n)
			tr.End(dl)
			if ok {
				done := time.Now()
				n.samples = append(n.samples, sample{due: began, done: done, ttlh: ms(done.Sub(began))})
			} else {
				n.failed++
				n.samples = append(n.samples, sample{due: began, ttlh: inf})
			}
		}
		n.start, n.end = start, time.Now()
		n.cpu = (cpuTime() - cpu0).Seconds()
		n.sent = t.sentCount() - sent0
		return n
	}

	runtime.GC() // start measuring on a collected heap
	res := &result{}
	var m fetchNumbers
	var layers []metric
	retried0 := nm.ChunksRetried.Value()
	if !cfg.trace {
		m = measure(cfg.dur)
	} else {
		untraced := measure(cfg.dur / 2)
		res.tracer = NewTracer()
		t.tr.Store(res.tracer)
		before := snapP2P(f.nodes)
		retried0 = nm.ChunksRetried.Value()
		m = measure(cfg.dur / 2)
		layers = append(layers, p2pLayer(before, snapP2P(f.nodes), m.sent)...)
		layers = append(layers, overheadPct(untraced.cpuPerDownload(), m.cpuPerDownload()))
	}
	m.retried = int(nm.ChunksRetried.Value() - retried0)
	f.close()
	if err := setups.repeat(fetchSetups, spec, cfg.seed, t); err != nil {
		return nil, err
	}
	setupS := median(setups.cpu)

	report(cfg.out, "fetch", metric{"downloads", "count", float64(m.attempted)},
		metric{"fetch_mbps", "MB/s", m.mibps() * (1 << 20) / 1e6},
		metric{"fetch_fail_ratio", "ratio", ratio(m.failed, m.attempted)},
		metric{"unverified", "count", float64(m.unverified)},
		metric{"download_p50_ms", "ms", m.p50()},
		metric{"download_p90_ms", "ms", medianLatency([]phaseSummary{m.phaseSummary}, latencyWindow, 0.9, true)},
		metric{"download_p99_ms", "ms", quantile(m.ttlh(), 0.99)},
		metric{"chunks_retried", "count", float64(m.retried)},
		metric{"cpu_ms_per_download", "ms", m.cpuPerDownload()},
		metric{"mib_per_cpu_s", "1/s", m.mibPerCPUSecond()})
	fmt.Fprintf(cfg.out, "fetch: stray frames=%d; setup wall_s=%.6f cpu_s=%.6f\n", t.strayCount(), median(setups.secs), setupS)

	res.attempted, res.failed = m.attempted, m.failed
	res.correct = m.unverified == 0 && t.strayCount() == 0
	res.e2e = []metric{
		{"cpu_ms_per_op", "ms", m.cpuPerDownload()},
		{"work_per_cpu_s", "1/s", m.mibPerCPUSecond()},
		{"setup_s", "s", setupS},
	}
	if cfg.trace {
		var hashed time.Duration
		chunks := 0
		var frames []*gnutella.ChunkData
		for _, sf := range files[:8] {
			start := time.Now()
			man := transfer.BuildManifest(sf.Title, sf.Size, chunkSize)
			hashed += time.Since(start)
			chunks += man.NumChunks()
			for c := 0; c < man.NumChunks() && len(frames) < 32; c++ {
				data, _, ok := store.ChunkData(sf.Index, uint32(c))
				if !ok {
					return nil, fmt.Errorf("store lost chunk %d of file %d", c, sf.Index)
				}
				frames = append(frames, &gnutella.ChunkData{FileIndex: sf.Index, Chunk: uint32(c),
					TotalChunks: uint32(man.NumChunks()), FileSize: uint64(sf.Size), Data: data})
			}
		}
		qs, hits := t.captured()
		layers = append(layers, indexLayer(ref, discovered, newCorpus(cfg.seed, 1, corpusFiles).clients[0])...)
		layers = append(layers, routingLayer(discovered[0])...)
		layers = append(layers, codecLayer(qs, hits, nil, frames)...)
		layers = append(layers,
			metric{"transfer.fetch_s_p50", "s", median(m.elapsed)},
			metric{"transfer.chunks_retried", "count", float64(m.retried)},
			metric{"transfer.hash_us_per_chunk", "us", float64(hashed.Nanoseconds()) / 1e3 / float64(chunks)},
			metric{"network.launch_ms", "ms", median(setups.launchMS)},
			metric{"loadgen.sent", "count", float64(m.sent)})
		res.layers = layers
		report(cfg.out, "fetch layers", layers...)
	}
	return res, nil
}

// download discovers one file's sources with a query, fetches it from up to
// loadConns() of them and verifies it against the precomputed hash. It
// reports whether a verified copy arrived.
func download(f *fleet, t *tracker, phase, seq int, file transfer.File, want map[resultKey]string,
	dl SpanRef, nm *metrics.NodeMetrics, hashes map[uint32][sha256.Size]byte, n *fetchNumbers) bool {
	q := t.add(phase, file.Title, want, time.Now())
	q.parent = dl.ID()
	if err := f.wire[seq%len(f.wire)].send(q); err != nil {
		return false
	}
	select {
	case <-q.complete:
	case <-time.After(queryTimeout):
	}
	if q.failed(queryTimeout) {
		return false
	}
	var sources []transfer.Source
	for _, k := range t.results(q) {
		if k.file == file.Index {
			sources = append(sources, transfer.Source{Addr: fmt.Sprintf("127.0.0.1:%d", k.port), FileIndex: k.file})
		}
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].Addr < sources[j].Addr })
	rot := seq % len(sources)
	sources = append(sources[rot:], sources[:rot]...)[:min(len(sources), loadConns())]

	tr := t.tracer()
	s := tr.Begin("transfer.fetch", dl.ID(), uint64(seq))
	res, err := transfer.Fetch(sources, transfer.Options{Seed: uint64(seq), Metrics: nm})
	tr.End(s)
	if err != nil {
		return false
	}
	n.elapsed = append(n.elapsed, res.Elapsed.Seconds())
	if res.Size != file.Size || res.Hash != hashes[file.Index] {
		n.unverified++
		return false
	}
	n.bytes += res.Size
	return true
}
