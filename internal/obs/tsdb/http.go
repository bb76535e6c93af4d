package tsdb

import (
	"net/http"
	"time"

	"relidev/internal/obs"
)

// Handler serves the ring as JSON at /timeseries:
//
//	?window=5m — trailing window (default: whole retention)
//	?step=30s  — downsampling resolution (default: the sampling step)
//
// Durations parse with time.ParseDuration. The handler only reads
// ring snapshots under the DB lock, so serving it beside a live
// sampler is safe. A nil DB — a host without a step has no ring —
// answers 404.
func Handler(db *DB) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if db == nil {
			http.Error(w, "telemetry disabled", http.StatusNotFound)
			return
		}
		var ns [2]int64 // window, step
		for i, key := range [...]string{"window", "step"} {
			if v := r.URL.Query().Get(key); v != "" {
				d, err := time.ParseDuration(v)
				if err != nil {
					http.Error(w, "bad "+key+": "+err.Error(), http.StatusBadRequest)
					return
				}
				ns[i] = d.Nanoseconds()
			}
		}
		obs.WriteJSON(w, http.StatusOK, db.Query(ns[0], ns[1]))
	}
}
