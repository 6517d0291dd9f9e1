package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"minaret/internal/batch"
	"minaret/internal/core"
	"minaret/internal/envelope"
	"minaret/internal/profile"
	"minaret/internal/sources"
)

// TestStoreLoadsWholeProfileResults: a store written before results were
// encoded lean holds every embedded profile whole. It still loads, the
// job serves each profile as its summary, and the next save is lean.
func TestStoreLoadsWholeProfileResults(t *testing.T) {
	reviewer := &profile.Profile{
		Name: "Ada Lovelace", SiteIDs: map[string]string{"dblp": "p1"},
		Affiliation: "Analytical Society", Citations: 321, HIndex: 12, ReviewCount: 1,
		AffiliationHistory: []sources.AffPeriod{{Institution: "Analytical Society", StartYear: 1840}},
		Publications:       []profile.Publication{{Title: "Notes on the analytical engine", Year: 1843}},
		Reviews:            []sources.ReviewRecord{{Venue: "Scientific Memoirs", Year: 1843, Days: 9}},
	}
	author := &profile.Profile{
		Name:         "Charles Babbage",
		Publications: []profile.Publication{{Title: "On the economy of machinery", Year: 1832}},
	}
	stored := StoredJob{
		Spec: Spec{ID: "old", Manuscripts: manuscripts(1, "")}, Seq: 1, State: StateDone,
		SubmittedAt: time.Unix(100, 0).UTC(), FinishedAt: time.Unix(101, 0).UTC(),
		Progress: &Progress{Total: 1, Completed: 1, Succeeded: 1, Statuses: []string{batch.StatusOK}},
		Result: &batch.Summary{Succeeded: 1, Items: []batch.Item{{Status: batch.StatusOK, Result: &core.Result{
			AuthorProfiles:  core.Profiles{author},
			Recommendations: []core.Recommendation{{Rank: 1, Reviewer: reviewer, Total: 0.9}},
		}}}},
	}

	// Encode the store, then put the profiles back whole, as the older
	// encoding wrote them.
	lean, err := json.Marshal(storePayload{SavedAt: time.Unix(102, 0).UTC(), Jobs: []StoredJob{stored}})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(lean, &doc); err != nil {
		t.Fatal(err)
	}
	item := doc["jobs"].([]any)[0].(map[string]any)["result"].(map[string]any)["items"].([]any)[0].(map[string]any)
	result := item["result"].(map[string]any)
	result["author_profiles"] = []*profile.Profile{author}
	result["recommendations"].([]any)[0].(map[string]any)["reviewer"] = reviewer
	payload, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"Publications"`)) {
		t.Fatal("the legacy payload holds no whole profile")
	}
	path := storePath(t)
	var file bytes.Buffer
	if err := envelope.Encode(&file, storeMagic, storeVersion, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	q := New(okRunner, Options{StorePath: path})
	stats, ok, err := q.Load()
	if err != nil || !ok || stats.Finished != 1 {
		t.Fatalf("load = %+v ok=%v err=%v", stats, ok, err)
	}
	job, err := q.Get("old")
	if err != nil || job.State != StateDone || job.Result == nil {
		t.Fatalf("restored job = %+v, %v", job, err)
	}
	res := job.Result.Items[0].Result
	if !reflect.DeepEqual(res.Recommendations[0].Reviewer, reviewer) || !reflect.DeepEqual(res.AuthorProfiles[0], author) {
		t.Fatalf("restored profiles = %+v, %+v", res.Recommendations[0].Reviewer, res.AuthorProfiles[0])
	}

	served, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Result struct {
			Items []struct {
				Result struct {
					AuthorProfiles  []*profile.Summary `json:"author_profiles"`
					Recommendations []struct {
						Reviewer *profile.Summary `json:"reviewer"`
					} `json:"recommendations"`
				} `json:"result"`
			} `json:"items"`
		} `json:"result"`
	}
	if err := json.Unmarshal(served, &view); err != nil {
		t.Fatal(err)
	}
	got := view.Result.Items[0].Result
	if !reflect.DeepEqual(got.Recommendations[0].Reviewer, reviewer.Summary()) || !reflect.DeepEqual(got.AuthorProfiles[0], author.Summary()) {
		t.Fatalf("served profiles = %+v, %+v", got.Recommendations[0].Reviewer, got.AuthorProfiles[0])
	}

	if err := q.save(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"Publications"`)) || !bytes.Contains(b, []byte(`"Ada Lovelace"`)) {
		t.Fatal("the next save did not rewrite the result lean")
	}
}
