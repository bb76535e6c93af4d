package slo

import (
	"net/http"

	"relidev/internal/obs"
	"relidev/internal/obs/health"
)

// Handler serves the engine at /slo: each GET evaluates once and
// returns the report as JSON — status 200 while no budget is
// exhausted, 503 once one is (firing burn alerts alone stay 200: they
// are pages for operators, not load-balancer signals). A nil engine
// answers 404.
func Handler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "slo engine disabled", http.StatusNotFound)
			return
		}
		rep, status := e.Evaluate(), http.StatusOK
		if rep.Overall >= health.Critical {
			status = http.StatusServiceUnavailable
		}
		obs.WriteJSON(w, status, rep)
	}
}
