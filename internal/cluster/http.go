package cluster

import (
	"net/http"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// shardInfo is one row of GET /v1/shards.
type shardInfo struct {
	Name     string     `json:"name"`
	URL      string     `json:"url"`
	State    ShardState `json:"state"`
	Inflight int        `json:"inflight"`
}

// HandlerConfig shapes the router's HTTP edge: the daemon's, since the
// job API is one route table.
type HandlerConfig = service.HandlerConfig

// NewHandlerConfig exposes a Cluster as the rmcrtrouter HTTP API: the
// job route table of service.NewHandlerConfig — the same surface as a
// single rmcrtd — plus shard administration:
//
//	GET    /v1/shards                 shard states and loads
//	POST   /v1/shards/{name}/drain    stop placing on a shard
//	POST   /v1/shards/{name}/undrain  return it to service
func NewHandlerConfig(c *Cluster, hc HandlerConfig) http.Handler {
	mux := service.NewHandlerConfig(c, hc)

	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		shards := c.Shards().Shards()
		out := make([]shardInfo, 0, len(shards))
		for _, s := range shards {
			out = append(out, shardInfo{
				Name: s.Name(), URL: s.URL(),
				State: s.State(), Inflight: s.Inflight(),
			})
		}
		service.WriteJSON(w, http.StatusOK, out)
	})

	admin := func(op func(name string) error, state string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := op(r.PathValue("name")); err != nil {
				service.WriteError(w, http.StatusNotFound, err)
				return
			}
			service.WriteJSON(w, http.StatusOK, map[string]string{"status": state})
		}
	}
	mux.HandleFunc("POST /v1/shards/{name}/drain", admin(c.Shards().Drain, "draining"))
	mux.HandleFunc("POST /v1/shards/{name}/undrain", admin(c.Shards().Undrain, "healthy"))

	return mux
}
