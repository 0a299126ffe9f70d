package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns the daemon's operational HTTP surface:
//
//	GET  /healthz                     liveness probe ("ok")
//	GET  /metrics                     Prometheus exposition (text 0.0.4)
//	GET  /trace                       finished spans as JSONL; the
//	                                  X-Lumen-Dropped-Spans header counts
//	                                  those a bounded tracer let go
//	GET  /trace?format=chrome         same spans as a Chrome trace
//	GET  /pipelines                   every pipeline's PipeStatus (JSON)
//	GET  /pipelines/{name}            one pipeline's PipeStatus
//	POST /pipelines/{name}/drain      graceful drain (blocks until done)
//	POST /pipelines/{name}/reload     drain + source Reset + fresh pass
//	POST /pipelines/{name}/swap       start a hot swap; query params:
//	                                  model (required, path to a model
//	                                  saved with mlkit.SaveModel),
//	                                  shadow (chunks, default 8),
//	                                  max-disagree (float, default 0),
//	                                  auto (default true)
//	POST /pipelines/{name}/promote    finish the swap in the candidate's
//	                                  favor
//	POST /pipelines/{name}/rollback   discard the swap candidate
//
// Control verbs respond 200 with {"ok": true} plus the pipeline's fresh
// status, or an error status with {"ok": false, "error": "..."}.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	if d.metrics != nil {
		mux.Handle("/metrics", d.metrics.Handler())
	}
	if d.tracer != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Lumen-Dropped-Spans", strconv.FormatInt(d.tracer.Dropped(), 10))
			if r.URL.Query().Get("format") == "chrome" {
				w.Header().Set("Content-Type", "application/json")
				d.tracer.WriteChromeTrace(w)
				return
			}
			w.Header().Set("Content-Type", "application/jsonl")
			d.tracer.WriteJSONL(w)
		})
	}
	mux.HandleFunc("/pipelines", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, d.Status())
	})
	mux.HandleFunc("/pipelines/", d.servePipeline)
	return mux
}

// servePipeline dispatches /pipelines/{name}[/verb].
func (d *Daemon) servePipeline(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/pipelines/")
	name, verb, _ := strings.Cut(rest, "/")
	p, ok := d.Pipe(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown pipeline %q", name)
		return
	}
	if verb == "" {
		writeJSON(w, http.StatusOK, p.Status())
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "%s %s: control verbs require POST", r.Method, r.URL.Path)
		return
	}
	var err error
	switch verb {
	case "drain":
		err = p.Drain()
	case "reload":
		err = p.Reload()
	case "swap":
		err = d.serveSwap(p, r)
	case "promote":
		err = p.Promote()
	case "rollback":
		err = p.Rollback()
	default:
		writeErr(w, http.StatusNotFound, "unknown verb %q (want drain, reload, swap, promote, rollback)", verb)
		return
	}
	if err != nil {
		writeErr(w, http.StatusConflict, "%s", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "status": p.Status()})
}

// serveSwap parses the swap query parameters and starts the swap.
func (d *Daemon) serveSwap(p *Pipe, r *http.Request) error {
	q := r.URL.Query()
	opts := SwapOptions{AutoDecide: true}
	if v := q.Get("shadow"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		opts.ShadowChunks = n
	}
	if v := q.Get("max-disagree"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		opts.MaxDisagree = f
	}
	if v := q.Get("auto"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		opts.AutoDecide = b
	}
	return p.SwapFromFile(q.Get("model"), opts)
}

// writeJSON renders v with an application/json content type.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr renders a {"ok": false, "error": ...} response.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"ok": false, "error": fmt.Sprintf(format, args...)})
}
