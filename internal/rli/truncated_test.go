package rli

import "testing"

// TestTruncatedFullUpdateCounted is the regression test for the ignored
// SSFullStart total: a stream that loses batches but still delivers
// SSFullEnd used to close the session as if complete. The RLI must compare
// the streamed count against the advertised total and account the mismatch.
func TestTruncatedFullUpdateCounted(t *testing.T) {
	s := newTestRLI(t, nil)

	// Advertise 5 names, deliver 2, then End: truncated.
	if err := s.HandleFullStart(ctx, "rls://lrc1", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullBatch(ctx, "rls://lrc1", []string{"lfn://a", "lfn://b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullEnd(ctx, "rls://lrc1"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TruncatedFulls != 1 {
		t.Fatalf("TruncatedFulls = %d after a short stream, want 1", st.TruncatedFulls)
	}
	// The names that did arrive stay valid soft state.
	if _, err := s.QueryLRCs(ctx, "lfn://a"); err != nil {
		t.Fatalf("partial data lost after truncated full: %v", err)
	}

	// A complete stream does not count.
	if err := s.HandleFullStart(ctx, "rls://lrc1", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullBatch(ctx, "rls://lrc1", []string{"lfn://c"}); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullEnd(ctx, "rls://lrc1"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TruncatedFulls != 1 {
		t.Fatalf("TruncatedFulls = %d after a complete stream, want 1", st.TruncatedFulls)
	}

	// Total 0 means "unknown" (partitioned senders): no truncation check.
	if err := s.HandleFullStart(ctx, "rls://lrc1", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullEnd(ctx, "rls://lrc1"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TruncatedFulls != 1 {
		t.Fatalf("TruncatedFulls = %d with unknown total, want 1", st.TruncatedFulls)
	}
}

// TestTruncatedFullUpdatePaddedWithEmptyNames: the database skips empty
// names, so they must not count toward the streamed total — a short stream
// padded with them is still truncated, and NamesIngested reports what was
// ingested.
func TestTruncatedFullUpdatePaddedWithEmptyNames(t *testing.T) {
	s := newTestRLI(t, nil)
	if err := s.HandleFullStart(ctx, "rls://lrc1", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullBatch(ctx, "rls://lrc1", []string{"lfn://a", "", "lfn://b", ""}); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleFullEnd(ctx, "rls://lrc1"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TruncatedFulls != 1 {
		t.Fatalf("TruncatedFulls = %d for 2 real names of 4 advertised, want 1", st.TruncatedFulls)
	}
	if st.NamesIngested != 2 {
		t.Fatalf("NamesIngested = %d, want the 2 non-empty names", st.NamesIngested)
	}
	if err := s.HandleIncremental(ctx, "rls://lrc1", []string{"", "lfn://c"}, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.NamesIngested != 3 {
		t.Fatalf("NamesIngested = %d after an incremental with one real name, want 3", st.NamesIngested)
	}
}
