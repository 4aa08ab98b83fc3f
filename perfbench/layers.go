package main

import (
	"bytes"
	"strings"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/metrics"
	"spnet/internal/p2p"
	"spnet/internal/routing"
)

// The layer replays run after the measured phases, while the fleet is idle,
// on inputs the workload generated or captured. Each times enough calls that
// one reading is a mean over tens of milliseconds.

// indexLayer replays the workload's query terms against one super-peer's
// share of the content, and times joining and removing one client's files.
func indexLayer(share *index.Index, queries [][]string, client []p2p.SharedFile) []metric {
	if len(queries) > 5000 {
		queries = queries[:5000]
	}
	pass := func() {
		for _, q := range queries {
			share.Search(q)
		}
	}
	pass() // warm
	n := max(len(queries), 1)
	rounds := max(1, 50000/n)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		pass()
	}
	searchUS := float64(time.Since(start).Microseconds()) / float64(rounds*n)
	allocs, _ := allocsOf(pass)

	titles := make([][]string, len(client))
	for i, f := range client {
		titles[i] = strings.Fields(f.Title)
	}
	var adds, removes []float64
	const owner = 1 << 29 // outside every owner id the workloads use
	for r := 0; r < 200; r++ {
		start := time.Now()
		for i, f := range client {
			if err := share.Add(index.DocID{Owner: owner, File: f.Index}, titles[i]); err != nil {
				panic(err) // owner is non-negative and titles non-empty
			}
		}
		mid := time.Now()
		share.RemoveOwner(owner)
		adds = append(adds, float64(mid.Sub(start).Nanoseconds())/1e3)
		removes = append(removes, float64(time.Since(mid).Nanoseconds())/1e3)
	}
	return []metric{
		{"index.search_us", "us", searchUS},
		{"index.allocs_per_search", "count", allocs / float64(n)},
		{"index.add_us", "us", median(adds)},
		{"index.remove_owner_us", "us", median(removes)},
	}
}

// routingLayer times a flood Select over a super-peer's candidate links.
func routingLayer(terms []string) []metric {
	cands := make([]routing.Candidate, wantPeers())
	for i := range cands {
		cands[i].ID = i
	}
	flood := routing.NewFlood()
	dst := make([]int, 0, len(cands))
	q := routing.Query{ID: 1, Terms: terms, TTL: 7}
	ns := nsPerOp(1_000_000, func() { dst = flood.Select(dst[:0], q, cands, nil) })
	return []metric{{"routing.select_ns", "ns", ns}}
}

// frameSet is a set of encoded frames of one message type.
type frameSet [][]byte

func encodeFrames[M gnutella.Message](msgs []M) frameSet {
	var out frameSet
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := gnutella.WriteMessage(&buf, m); err != nil {
			panic(err) // every message was built or decoded by the codec
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// decode times ReadMessage over the frames and counts its allocations.
func (fs frameSet) decode() (ns, allocs float64) {
	if len(fs) == 0 {
		return 0, 0
	}
	var r bytes.Reader
	pass := func() {
		for _, f := range fs {
			r.Reset(f)
			if _, err := gnutella.ReadMessage(&r); err != nil {
				panic(err)
			}
		}
	}
	pass()
	rounds := max(1, 20000/len(fs))
	start := time.Now()
	for i := 0; i < rounds; i++ {
		pass()
	}
	ns = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(fs))
	a, _ := allocsOf(pass)
	return ns, a / float64(len(fs))
}

// codecLayer replays captured frames from memory through the gnutella codec
// and the per-frame load meter. Kinds the workload never carried are absent
// and read 0.
func codecLayer(queries []*gnutella.Query, hits []*gnutella.QueryHit, joins []*gnutella.Join, chunks []*gnutella.ChunkData) []metric {
	var encodeNS float64
	if len(queries) > 0 {
		var buf bytes.Buffer
		i := 0
		encodeNS = nsPerOp(200000, func() {
			buf.Reset()
			if err := gnutella.WriteMessage(&buf, queries[i%len(queries)]); err != nil {
				panic(err)
			}
			i++
		})
	}
	hitNS, hitAllocs := encodeFrames(hits).decode()
	joinNS, joinAllocs := encodeFrames(joins).decode()
	chunkNS, chunkAllocs := encodeFrames(chunks).decode()
	decoded := len(hits) + len(joins) + len(chunks)
	allocs := (hitAllocs*float64(len(hits)) + joinAllocs*float64(len(joins)) + chunkAllocs*float64(len(chunks))) /
		float64(max(decoded, 1))

	var msgs []gnutella.Message
	for _, m := range queries {
		msgs = append(msgs, m)
	}
	for _, m := range hits {
		msgs = append(msgs, m)
	}
	for _, m := range joins {
		msgs = append(msgs, m)
	}
	for _, m := range chunks {
		msgs = append(msgs, m)
	}
	var meterNS float64
	if len(msgs) > 0 {
		lm := metrics.NewNodeMetrics().Load
		i := 0
		meterNS = nsPerOp(500000, func() {
			gnutella.Meter(lm, metrics.DirIn, msgs[i%len(msgs)])
			i++
		})
	}
	return []metric{
		{"gnutella.query_encode_ns", "ns", encodeNS},
		{"gnutella.hit_decode_ns", "ns", hitNS},
		{"gnutella.join_decode_ns", "ns", joinNS},
		{"gnutella.chunk_decode_ns", "ns", chunkNS},
		{"gnutella.allocs_per_msg", "count", allocs},
		{"metrics.meter_ns", "ns", meterNS},
	}
}

// joinFrames builds the Join each client sends when it connects.
func joinFrames(clients [][]p2p.SharedFile) []*gnutella.Join {
	var out []*gnutella.Join
	for i, files := range clients {
		j := &gnutella.Join{}
		j.ID[0], j.ID[1] = byte(i), byte(i>>8)
		for _, f := range files {
			j.Files = append(j.Files, gnutella.MetadataRecord{FileIndex: f.Index, FileSize: f.Size, Title: f.Title})
		}
		out = append(out, j)
	}
	return out
}
