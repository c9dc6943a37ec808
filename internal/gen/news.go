package gen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/stream"
)

// Vertex and edge type labels used by the news/social-media workload; the
// Fig. 2 style queries reference these.
const (
	TypeArticle      = "Article"
	TypeKeyword      = "Keyword"
	TypeLocation     = "Location"
	TypePerson       = "Person"
	TypeOrganization = "Organization"

	EdgeMentions = "mentions"
	EdgeLocated  = "located_in"
	EdgeQuotes   = "quotes"
	EdgeAbout    = "about_org"
)

// NewsConfig parameterizes the news-stream generator.
type NewsConfig struct {
	// Articles is the number of background articles to emit.
	Articles int
	// Keywords, Locations, People, Orgs size the entity vocabularies.
	Keywords  int
	Locations int
	People    int
	Orgs      int
	// KeywordsPerArticle and so on bound how many entities each article
	// links to (at least one keyword and one location are always emitted so
	// the Fig. 2 query is satisfiable).
	KeywordsPerArticle int
	PeoplePerArticle   int
	// Start is the publication time of the first article and Gap the mean
	// spacing between articles.
	Start graph.Timestamp
	Gap   time.Duration
	// KeywordSkew is the Zipf exponent of keyword popularity.
	KeywordSkew float64
	// Seed makes the stream reproducible.
	Seed int64
	// EventClusters injects ground-truth events: for each cluster,
	// EventArticles articles sharing one keyword and one location are
	// published within EventSpan.
	EventClusters int
	EventArticles int
	EventSpan     time.Duration
}

// DefaultNewsConfig returns a laptop-scale configuration.
func DefaultNewsConfig() NewsConfig {
	return NewsConfig{
		Articles:           20_000,
		Keywords:           2_000,
		Locations:          300,
		People:             1_000,
		Orgs:               400,
		KeywordsPerArticle: 3,
		PeoplePerArticle:   2,
		Start:              graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		Gap:                2 * time.Second,
		KeywordSkew:        1.3,
		Seed:               3,
		EventClusters:      5,
		EventArticles:      3,
		EventSpan:          10 * time.Minute,
	}
}

// NewsEvent records the ground truth of one injected event cluster.
type NewsEvent struct {
	Keyword  graph.VertexID
	Location graph.VertexID
	Articles []graph.VertexID
	Start    graph.Timestamp
	End      graph.Timestamp
}

// News generates an article/keyword/location/person stream.
type News struct {
	cfg NewsConfig
	rng *rand.Rand
	seq *Sequence
	kwz *zipf

	keywords  []graph.VertexID
	locations []graph.VertexID
	people    []graph.VertexID
	orgs      []graph.VertexID
}

// NewNews constructs a generator. seq may be nil for a fresh ID space.
func NewNews(cfg NewsConfig, seq *Sequence) *News {
	if cfg.Keywords < 1 {
		cfg.Keywords = 1
	}
	if cfg.Locations < 1 {
		cfg.Locations = 1
	}
	if cfg.KeywordsPerArticle < 1 {
		cfg.KeywordsPerArticle = 1
	}
	if cfg.Gap <= 0 {
		cfg.Gap = time.Second
	}
	if cfg.EventArticles < 2 {
		cfg.EventArticles = 2
	}
	if cfg.EventSpan <= 0 {
		cfg.EventSpan = time.Minute
	}
	if seq == nil {
		seq = &Sequence{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &News{cfg: cfg, rng: rng, seq: seq, kwz: newZipf(rng, cfg.Keywords, cfg.KeywordSkew)}
	for i := 0; i < cfg.Keywords; i++ {
		n.keywords = append(n.keywords, seq.NextVertex())
	}
	for i := 0; i < cfg.Locations; i++ {
		n.locations = append(n.locations, seq.NextVertex())
	}
	for i := 0; i < cfg.People; i++ {
		n.people = append(n.people, seq.NextVertex())
	}
	for i := 0; i < cfg.Orgs; i++ {
		n.orgs = append(n.orgs, seq.NextVertex())
	}
	return n
}

// Keywords returns the keyword vertex IDs (rank order: most popular first).
func (n *News) Keywords() []graph.VertexID { return n.keywords }

// Locations returns the location vertex IDs.
func (n *News) Locations() []graph.VertexID { return n.locations }

// Sequence returns the shared ID sequence.
func (n *News) Sequence() *Sequence { return n.seq }

// KeywordLabel returns the label attribute the generator assigns to the
// i-th keyword; queries can pin an event topic with it.
func KeywordLabel(i int) string { return fmt.Sprintf("topic-%d", i) }

// LocationName returns the name attribute of the i-th location.
func LocationName(i int) string { return fmt.Sprintf("city-%d", i) }

// article emits the edges of a single article mentioning the given keyword
// and location (plus random extra keywords/people).
func (n *News) article(ts graph.Timestamp, kwIdx, locIdx int) []graph.StreamEdge {
	articleID := n.seq.NextVertex()
	var out []graph.StreamEdge
	addEdge := func(dst graph.VertexID, dstType, edgeType string, attrs graph.Attributes, dstAttrs graph.Attributes) {
		out = append(out, graph.StreamEdge{
			Edge: graph.Edge{
				ID:        n.seq.NextEdge(),
				Source:    articleID,
				Target:    dst,
				Type:      edgeType,
				Timestamp: ts,
				Attrs:     attrs,
			},
			SourceType:  TypeArticle,
			TargetType:  dstType,
			SourceAttrs: graph.Attributes{"published": graph.Int(int64(ts))},
			TargetAttrs: dstAttrs,
		})
	}
	addEdge(n.keywords[kwIdx], TypeKeyword, EdgeMentions, nil,
		graph.Attributes{"label": graph.String(KeywordLabel(kwIdx))})
	addEdge(n.locations[locIdx], TypeLocation, EdgeLocated, nil,
		graph.Attributes{"name": graph.String(LocationName(locIdx))})
	for k := 1; k < n.cfg.KeywordsPerArticle; k++ {
		extra := n.kwz.draw()
		addEdge(n.keywords[extra], TypeKeyword, EdgeMentions, nil,
			graph.Attributes{"label": graph.String(KeywordLabel(extra))})
	}
	for k := 0; k < n.cfg.PeoplePerArticle && len(n.people) > 0; k++ {
		p := n.people[n.rng.Intn(len(n.people))]
		addEdge(p, TypePerson, EdgeQuotes, nil, nil)
	}
	if len(n.orgs) > 0 && n.rng.Float64() < 0.5 {
		o := n.orgs[n.rng.Intn(len(n.orgs))]
		addEdge(o, TypeOrganization, EdgeAbout, nil, nil)
	}
	return out
}

// Generate produces the background article stream plus the configured event
// clusters, merged into timestamp order, and the ground-truth events.
func (n *News) Generate() ([]graph.StreamEdge, []NewsEvent) {
	var background []graph.StreamEdge
	ts := n.cfg.Start
	for i := 0; i < n.cfg.Articles; i++ {
		ts = ts.Add(n.cfg.Gap/2 + jitter(n.rng, n.cfg.Gap))
		background = append(background, n.article(ts, n.kwz.draw(), n.rng.Intn(len(n.locations)))...)
	}
	end := ts

	var events []NewsEvent
	var eventEdges []graph.StreamEdge
	for c := 0; c < n.cfg.EventClusters; c++ {
		kw := n.kwz.draw()
		loc := n.rng.Intn(len(n.locations))
		span := int64(end - n.cfg.Start)
		if span < 1 {
			span = 1
		}
		start := n.cfg.Start + graph.Timestamp(n.rng.Int63n(span))
		ev := NewsEvent{
			Keyword:  n.keywords[kw],
			Location: n.locations[loc],
			Start:    start,
		}
		at := start
		step := n.cfg.EventSpan / time.Duration(n.cfg.EventArticles)
		for a := 0; a < n.cfg.EventArticles; a++ {
			edges := n.article(at, kw, loc)
			eventEdges = append(eventEdges, edges...)
			ev.Articles = append(ev.Articles, edges[0].Edge.Source)
			ev.End = at
			at = at.Add(step/2 + jitter(n.rng, step))
		}
		events = append(events, ev)
	}
	// Clusters start at random times, so the concatenated event edges are
	// unsorted across clusters; Merge requires sorted inputs.
	stream.SortByTimestamp(eventEdges)
	return stream.Merge(background, eventEdges), events
}
