package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"minaret/internal/nameres"
	"minaret/internal/ontology"
	"minaret/internal/profile"
	"minaret/internal/sources"
)

// testClock is a manually-stepped time source shared across caches.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2019, 3, 26, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// seedShared populates every cache with one synthetic entry.
func seedShared(s *Shared) {
	s.profiles.Put("dblp=p1", &profile.Profile{
		Name: "Ada Lovelace", Citations: 321, HIndex: 12,
		SiteIDs:   map[string]string{"dblp": "p1"},
		Interests: []string{"query processing"},
	})
	s.verifies.Put("v1", &nameres.Result{
		Resolved: true,
		Candidates: []nameres.Identity{{
			Name: "Ada Lovelace", Score: 0.95,
			SiteIDs: map[string]string{"dblp": "p1"},
		}},
	})
	s.expansions.Put("e1", []ontology.MergedExpansion{{
		Expansion: ontology.Expansion{Keyword: "sparql", Score: 0.8, Hops: 1},
		Seeds:     []string{"rdf"},
	}})
	s.retrievals.Put("dblp|\"rdf\"", []sources.Hit{{
		Source: "dblp", SiteID: "p1", Name: "Ada Lovelace",
		Interests: []string{"rdf"},
	}})
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := NewShared(SharedOptions{})
	seedShared(src)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewShared(SharedOptions{})
	stats, err := dst.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 4 || stats.Expired != 0 || stats.Corrupt != 0 {
		t.Fatalf("restore stats = %+v, want 4 loaded", stats)
	}
	if stats.SavedAt.IsZero() {
		t.Fatal("SavedAt not recorded")
	}

	p, ok := dst.profiles.Get("dblp=p1")
	if !ok || p.Name != "Ada Lovelace" || p.Citations != 321 {
		t.Fatalf("profile after restore = %+v %v", p, ok)
	}
	v, ok := dst.verifies.Get("v1")
	if !ok || !v.Resolved || v.Candidates[0].SiteIDs["dblp"] != "p1" {
		t.Fatalf("verify after restore = %+v %v", v, ok)
	}
	e, ok := dst.expansions.Get("e1")
	if !ok || len(e) != 1 || e[0].Keyword != "sparql" || e[0].Seeds[0] != "rdf" {
		t.Fatalf("expansion after restore = %+v %v", e, ok)
	}
	h, ok := dst.retrievals.Get("dblp|\"rdf\"")
	if !ok || len(h) != 1 || h[0].SiteID != "p1" {
		t.Fatalf("retrieval after restore = %+v %v", h, ok)
	}
}

// TestSnapshotWarmStart is the "restart" scenario end-to-end at the
// engine level: a warm Shared is snapshotted, a fresh process (new
// Shared, new Engine) restores it, and the same manuscript is served
// mostly from cache.
func TestSnapshotWarmStart(t *testing.T) {
	w := newWorld(t, 77, 300)
	author := w.pickAuthor(t)
	m := w.manuscriptFor(author)

	warm := NewShared(SharedOptions{})
	eng := NewWithShared(w.registry, w.ont, defaultEngine(w, Config{TopK: 5, MaxCandidates: 40}).cfg, warm)
	if _, err := eng.Recommend(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if warm.Stats().Retrievals.Size == 0 {
		t.Fatal("warm run populated no retrievals")
	}

	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": new Shared restored from the snapshot.
	restored := NewShared(SharedOptions{})
	stats, err := restored.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded == 0 {
		t.Fatal("nothing restored")
	}
	eng2 := NewWithShared(w.registry, w.ont, eng.cfg, restored)
	if _, err := eng2.Recommend(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	after := restored.Stats()
	if hits := after.Retrievals.Hits + after.Verifies.Hits + after.Profiles.Hits + after.Expansions.Hits; hits == 0 {
		t.Fatalf("no shared-cache hits after warm start: %+v", after)
	}
	if after.Expansions.Hits == 0 {
		t.Fatalf("expansion memo cold after restore: %+v", after.Expansions)
	}
}

// TestSnapshotKeepsWholeProfiles: a Result encodes its profiles as
// summaries, but a cache snapshot must carry every assembled profile
// whole — a profile restored without its publications would blind COI
// detection after a restart.
func TestSnapshotKeepsWholeProfiles(t *testing.T) {
	w := newWorld(t, 77, 300)
	m := w.manuscriptFor(w.pickAuthor(t))
	warm := NewShared(SharedOptions{})
	eng := NewWithShared(w.registry, w.ont, defaultEngine(w, Config{TopK: 5, MaxCandidates: 40}).cfg, warm)
	if _, err := eng.Recommend(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewShared(SharedOptions{})
	if _, err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	want := warm.profiles.Export()
	got := map[string]*profile.Profile{}
	for _, e := range restored.profiles.Export() {
		got[e.Key] = e.Val
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d profiles, snapshotted %d", len(got), len(want))
	}
	pubs, reviews := 0, 0
	for _, e := range want {
		if !reflect.DeepEqual(got[e.Key], e.Val) {
			t.Errorf("profile %s restored as %+v, want %+v", e.Key, got[e.Key], e.Val)
		}
		pubs += len(e.Val.Publications)
		reviews += len(e.Val.Reviews)
	}
	if pubs == 0 || reviews == 0 {
		t.Fatalf("warm profiles hold %d publications, %d reviews: nothing to carry", pubs, reviews)
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	src := NewShared(SharedOptions{})
	seedShared(src)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":     append([]byte("NOTSNAP\x00"), good[8:]...),
		"flipped byte":  flipByte(good, len(good)-1),
		"bad checksum":  flipByte(good, 20),
		"truncated":     good[:len(good)/2],
		"header only":   good[:24],
		"short header":  good[:10],
		"empty":         {},
		"wrong version": withVersion(good, 99),
	}
	for name, data := range cases {
		dst := NewShared(SharedOptions{})
		if _, err := dst.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Restore accepted corrupt input", name)
		}
		// Rejection is all-or-nothing: nothing leaked into the caches.
		if st := dst.Stats(); st.Profiles.Size+st.Verifies.Size+st.Expansions.Size+st.Retrievals.Size != 0 {
			t.Errorf("%s: corrupt restore left entries behind: %+v", name, st)
		}
	}
}

// flipByte returns a copy of b with bit 0 of b[i] inverted.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}

// withVersion returns a copy of a snapshot with its version field set.
func withVersion(b []byte, v uint32) []byte {
	out := append([]byte(nil), b...)
	binary.BigEndian.PutUint32(out[8:12], v)
	return out
}

// wrapEnvelope wraps payload in a valid snapshot header (correct magic,
// version and checksum), for hand-crafting payload-level cases.
func wrapEnvelope(payload []byte) []byte {
	out := make([]byte, 24+len(payload))
	copy(out[:8], "MINSNAP\x00")
	binary.BigEndian.PutUint32(out[8:12], 1)
	binary.BigEndian.PutUint64(out[12:20], uint64(len(payload)))
	binary.BigEndian.PutUint32(out[20:24], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(out[24:], payload)
	return out
}

func TestRestoreDropsCorruptEntriesIndividually(t *testing.T) {
	payload, err := json.Marshal(map[string]any{
		"saved_at": time.Now().UTC(),
		"caches": map[string]any{
			"profiles": []map[string]any{
				{"k": "good", "v": map[string]any{"Name": "Ada"}},
				{"k": "null", "v": nil},
				{"k": "wrong-type", "v": []int{1, 2, 3}},
			},
			"verifies": []map[string]any{
				{"k": "v-good", "v": map[string]any{"Resolved": true}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := NewShared(SharedOptions{})
	stats, err := dst.Restore(bytes.NewReader(wrapEnvelope(payload)))
	if err != nil {
		t.Fatalf("entry-level corruption must not fail the restore: %v", err)
	}
	if stats.Loaded != 2 || stats.Corrupt != 2 {
		t.Fatalf("stats = %+v, want 2 loaded + 2 corrupt", stats)
	}
	pc := stats.Caches["profiles"]
	if pc.Loaded != 1 || pc.Corrupt != 2 {
		t.Fatalf("profiles restore = %+v, want 1 loaded + 2 corrupt", pc)
	}
	if p, ok := dst.profiles.Get("good"); !ok || p.Name != "Ada" {
		t.Fatalf("good profile lost: %+v %v", p, ok)
	}
}

func TestRestoreDropsExpiredEntries(t *testing.T) {
	clk := newTestClock()
	opts := SharedOptions{ProfileTTL: time.Minute, RetrievalTTL: time.Hour, Clock: clk.Now}
	src := NewShared(opts)
	seedShared(src)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The process is down for 30 minutes: profiles (1m TTL) are stale,
	// retrievals (1h TTL) and the TTL-less caches are still good.
	clk.Advance(30 * time.Minute)

	dst := NewShared(opts)
	stats, err := dst.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Expired != 1 || stats.Loaded != 3 {
		t.Fatalf("stats = %+v, want 1 expired + 3 loaded", stats)
	}
	if _, ok := dst.profiles.Get("dblp=p1"); ok {
		t.Fatal("expired profile served after restore")
	}
	if _, ok := dst.retrievals.Get("dblp|\"rdf\""); !ok {
		t.Fatal("unexpired retrieval lost")
	}

	// The restored retrieval keeps its original deadline: 31 more
	// minutes put it past the 1h TTL even though it was just loaded.
	clk.Advance(31 * time.Minute)
	if _, ok := dst.retrievals.Get("dblp|\"rdf\""); ok {
		t.Fatal("restored entry outlived its original deadline")
	}
}

func TestRestoreRejectsScopeMismatch(t *testing.T) {
	src := NewShared(SharedOptions{SnapshotScope: "inproc seed=42 scholars=300"})
	seedShared(src)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// A different universe: rejected whole, caches untouched.
	other := NewShared(SharedOptions{SnapshotScope: "inproc seed=7 scholars=2000"})
	if _, err := other.Restore(bytes.NewReader(snap)); err == nil {
		t.Fatal("scope mismatch accepted")
	}
	if st := other.Stats(); st.Profiles.Size+st.Verifies.Size+st.Expansions.Size+st.Retrievals.Size != 0 {
		t.Fatalf("mismatched restore left entries: %+v", st)
	}

	// The same universe: accepted.
	same := NewShared(SharedOptions{SnapshotScope: "inproc seed=42 scholars=300"})
	if stats, err := same.Restore(bytes.NewReader(snap)); err != nil || stats.Loaded != 4 {
		t.Fatalf("matching scope: %+v, %v", stats, err)
	}

	// A scope-less reader accepts any snapshot (the check is opt-in).
	open := NewShared(SharedOptions{})
	if _, err := open.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("scope-less restore rejected: %v", err)
	}
}

func TestSharedTTLExpiryFakeClock(t *testing.T) {
	clk := newTestClock()
	s := NewShared(SharedOptions{VerifyTTL: 10 * time.Minute, Clock: clk.Now})
	seedShared(s)

	clk.Advance(9 * time.Minute)
	if _, ok := s.verifies.Get("v1"); !ok {
		t.Fatal("verify entry gone before TTL")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := s.verifies.Get("v1"); ok {
		t.Fatal("verify entry served past TTL")
	}
	if st := s.Stats(); st.Verifies.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Verifies.Expired)
	}
	// TTL-less caches are untouched by time.
	if _, ok := s.profiles.Get("dblp=p1"); !ok {
		t.Fatal("TTL-less profile expired")
	}
}

func TestSharedJanitorSweeps(t *testing.T) {
	clk := newTestClock()
	s := NewShared(SharedOptions{
		ProfileTTL: time.Minute, VerifyTTL: time.Minute,
		ExpansionTTL: time.Minute, RetrievalTTL: time.Minute,
		Clock: clk.Now,
	})
	seedShared(s)
	clk.Advance(2 * time.Minute)

	stop := s.StartJanitor(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Profiles.Size+st.Verifies.Size+st.Expansions.Size+st.Retrievals.Size == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("janitor never reclaimed expired entries: %+v", s.Stats())
}

func TestSharedOptionsValidate(t *testing.T) {
	valid := []SharedOptions{
		{},
		{ProfileEntries: 10, VerifyTTL: time.Hour},
		{Clock: time.Now},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	invalid := []SharedOptions{
		{ProfileEntries: -1},
		{RetrievalEntries: -5},
		{ProfileTTL: -time.Second},
		{ExpansionTTL: -1},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("NewShared accepted invalid options without panicking")
		}
	}()
	NewShared(SharedOptions{ProfileTTL: -time.Second})
}

func TestClearNamed(t *testing.T) {
	s := NewShared(SharedOptions{})
	seedShared(s)

	if err := s.ClearNamed("profiles"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Profiles.Size != 0 {
		t.Fatal("profiles not cleared")
	}
	if st.Verifies.Size != 1 || st.Expansions.Size != 1 || st.Retrievals.Size != 1 {
		t.Fatalf("selective clear touched other caches: %+v", st)
	}

	if err := s.ClearNamed("bogus"); err == nil {
		t.Fatal("unknown cache name accepted")
	}

	if err := s.ClearNamed("all"); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Verifies.Size+st.Expansions.Size+st.Retrievals.Size != 0 {
		t.Fatalf("ClearNamed(all) left entries: %+v", st)
	}
}

func TestSaveLoadSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")

	// Missing file: normal cold start, not an error.
	s := NewShared(SharedOptions{})
	if _, ok, err := s.LoadSnapshot(path); err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v, want false nil", ok, err)
	}

	seedShared(s)
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// Atomic save leaves no temp droppings.
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("dir has %d files, want 1 (the snapshot)", len(files))
	}

	dst := NewShared(SharedOptions{})
	stats, ok, err := dst.LoadSnapshot(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if stats.Loaded != 4 {
		t.Fatalf("loaded %d, want 4", stats.Loaded)
	}

	// A corrupt file is a load error, not a silent cold start.
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-3], 0o644)
	if _, _, err := NewShared(SharedOptions{}).LoadSnapshot(path); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
}

func TestStartSnapshotterPeriodicAndFinal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	s := NewShared(SharedOptions{})
	seedShared(s)

	stop := s.StartSnapshotter(path, 5*time.Millisecond, t.Logf)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("periodic save never happened")
		}
		time.Sleep(time.Millisecond)
	}

	// New entries picked up by the final save-on-shutdown.
	s.expansions.Put("late", nil)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	dst := NewShared(SharedOptions{})
	stats, ok, err := dst.LoadSnapshot(path)
	if err != nil || !ok {
		t.Fatalf("load after stop: ok=%v err=%v", ok, err)
	}
	if stats.Loaded != 5 {
		t.Fatalf("final save missed late entry: loaded %d, want 5", stats.Loaded)
	}
}
