package main

import (
	"fmt"
	"strings"
	"sync"

	"spnet/internal/content"
	"spnet/internal/index"
	"spnet/internal/p2p"
	"spnet/internal/stats"
)

// Salts split the seed into independent input streams, so adding draws to
// one stream never shifts another.
const (
	saltCorpus uint64 = iota + 1
	saltQueries
	saltMatching
	saltArrivals
	saltChurn
	saltChurnFiles
	saltGUID
	saltStore
	saltDownloads
	saltModel
)

// corpus is the search workload's static content: each corpus client shares
// files whose titles are drawn from content.DefaultLibrary's Zipf law, and a
// reference index over all of it gives every query's ground truth. File
// indices are unique across the corpus.
type corpus struct {
	lib     *content.Library
	clients [][]p2p.SharedFile
	ref     *index.Index // DocID{Owner: corpus client, File: file index}
}

func newCorpus(seed uint64, clients, files int) *corpus {
	rng := stats.NewRNG(seed).Split(saltCorpus)
	c := &corpus{lib: content.DefaultLibrary(), ref: index.New()}
	for i := 0; i < clients; i++ {
		fs := make([]p2p.SharedFile, files)
		for j := range fs {
			terms := c.lib.SampleTitle(rng)
			fs[j] = p2p.SharedFile{Index: uint32(i*files + j), Size: uint32(1<<20 + rng.Intn(4<<20)),
				Title: strings.Join(terms, " ")}
			if err := c.ref.Add(index.DocID{Owner: i, File: fs[j].Index}, terms); err != nil {
				panic(err) // owners are non-negative and terms non-empty
			}
		}
		c.clients = append(c.clients, fs)
	}
	return c
}

func (c *corpus) files() int {
	n := 0
	for _, fs := range c.clients {
		n += len(fs)
	}
	return n
}

// querySource draws keyword queries from the library's Zipf law under its
// own seeded stream and pairs each with its expected results. With
// matchOnly it redraws until a query has at least one match, since a
// zero-match query has no observable completion.
type querySource struct {
	mu        sync.Mutex
	rng       *stats.RNG
	lib       *content.Library
	ref       *index.Index
	matchOnly bool
	expect    func(index.Match) []resultKey
	drawn     [][]string // every query's terms, in draw order
}

func (s *querySource) next() (string, map[resultKey]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		terms := s.lib.SampleQuery(s.rng)
		matches := s.ref.Search(terms)
		if s.matchOnly && len(matches) == 0 {
			continue
		}
		s.drawn = append(s.drawn, terms)
		want := make(map[resultKey]string, len(matches))
		for _, m := range matches {
			for _, k := range s.expect(m) {
				want[k] = strings.Join(m.Terms, " ")
			}
		}
		return strings.Join(terms, " "), want
	}
}

func (s *querySource) terms() [][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]string(nil), s.drawn...)
}

// churnOp is one step of the churn schedule.
type churnOp struct {
	kind   int // opInsert, opDelete or opRejoin
	client int // churn client index
	pick   int // which file to delete
	title  string
}

const (
	opInsert = iota
	opDelete
	opRejoin
	numChurnOps
)

// churnTitle draws a title from a term namespace ("c0000".."c0999")
// disjoint from the library's ("w0000".."w9999"), so churned files never
// match a timed query and every query's ground truth stays fixed.
func churnTitle(rng *stats.RNG) string {
	terms := make([]string, 3)
	for i := range terms {
		terms[i] = fmt.Sprintf("c%04d", rng.Intn(1000))
	}
	return strings.Join(terms, " ")
}

// churnSchedule returns the seeded sequence of churn operations.
func churnSchedule(seed uint64, clients, n int) []churnOp {
	rng := stats.NewRNG(seed).Split(saltChurn)
	ops := make([]churnOp, n)
	for i := range ops {
		ops[i] = churnOp{kind: rng.Intn(numChurnOps), client: rng.Intn(clients),
			pick: rng.Intn(1 << 20), title: churnTitle(rng)}
	}
	return ops
}
