package libra_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	libra "repro"
	"repro/internal/serve"
)

// TestPolicyTable pins the one policy table: it lists every Policy constant,
// each name in it is a valid Config.Policy that selects the core scheduling
// mode of the same name, and a name outside it is rejected both by Validate
// and by the service's /v1/run.
func TestPolicyTable(t *testing.T) {
	want := []libra.Policy{libra.PolicyZOrder, libra.PolicyStaticSupertile,
		libra.PolicyTemperature, libra.PolicyLIBRA, libra.PolicyHilbert,
		libra.PolicyReverse, libra.PolicyRandom, libra.PolicyAltTemperature}
	if got := libra.Policies(); !slices.Equal(got, want) {
		t.Errorf("Policies() = %v, want %v", got, want)
	}
	for _, p := range libra.Policies() {
		cfg := libra.DefaultConfig(64, 64)
		cfg.Policy = p
		if err := cfg.Validate(); err != nil {
			t.Errorf("policy %q: %v", p, err)
		}
		if m := libra.CoreMode(cfg); string(m) != string(p) {
			t.Errorf("policy %q selects core mode %q", p, m)
		}
	}

	cfg := libra.DefaultConfig(64, 64)
	cfg.Policy = "nope"
	if err := cfg.Validate(); err == nil || err.Error() != `libra: unknown policy "nope"` {
		t.Errorf("unknown policy: Validate() = %v", err)
	}
	s, err := serve.NewServer(context.Background(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"game":"Jet","config":{"Policy":"nope"}}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown policy: /v1/run status %d, want %d (body %s)", rec.Code, http.StatusBadRequest, rec.Body)
	}
}
