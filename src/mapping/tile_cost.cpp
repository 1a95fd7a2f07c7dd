#include "src/mapping/tile_cost.h"

#include <sstream>

namespace sdfmap {

namespace {

// Load of `used` against `capacity`; a zero-capacity resource that is used
// anyway yields a huge load so the tile sorts last.
double load_fraction(double used, double capacity) {
  if (capacity <= 0) return used > 0 ? 1e12 : 0.0;
  return used / capacity;
}

}  // namespace

std::string TileCostWeights::to_string() const {
  std::ostringstream os;
  os << "(" << processing << "," << memory << "," << communication << ")";
  return os.str();
}

double processing_load(const ApplicationGraph& app, const Architecture& arch,
                       const Binding& binding, TileId tile) {
  const Graph& g = app.sdf();
  const RepetitionVector& gamma = app.repetition_vector();
  const ProcTypeId pt = arch.tile(tile).proc_type;

  double used = 0;
  double total = 0;
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    total += static_cast<double>(gamma[a]) *
             static_cast<double>(app.max_execution_time(ActorId{a}));
    const auto bound = binding.tile_of(ActorId{a});
    if (bound && *bound == tile) {
      const auto& req = app.requirement(ActorId{a}, pt);
      // Unsupported actors are rejected by check_binding; treat as max load.
      used += static_cast<double>(gamma[a]) *
              (req ? static_cast<double>(req->execution_time)
                   : static_cast<double>(app.max_execution_time(ActorId{a})));
    }
  }
  return load_fraction(used, total);
}

namespace {

double memory_load(const AllocationUsage& usage, const Architecture& arch, TileId tile) {
  return load_fraction(static_cast<double>(usage[tile.value].memory),
                       static_cast<double>(arch.tile(tile).memory));
}

double communication_load(const AllocationUsage& usage, const Architecture& arch,
                          TileId tile) {
  const Tile& t = arch.tile(tile);
  const double out_load = load_fraction(static_cast<double>(usage[tile.value].bandwidth_out),
                                        static_cast<double>(t.bandwidth_out));
  const double in_load = load_fraction(static_cast<double>(usage[tile.value].bandwidth_in),
                                       static_cast<double>(t.bandwidth_in));
  const double conn_load = load_fraction(static_cast<double>(usage[tile.value].connections),
                                         static_cast<double>(t.max_connections));
  return (out_load + in_load + conn_load) / 3.0;
}

}  // namespace

double memory_load(const ApplicationGraph& app, const Architecture& arch,
                   const Binding& binding, TileId tile) {
  return memory_load(compute_usage(app, arch, binding), arch, tile);
}

double communication_load(const ApplicationGraph& app, const Architecture& arch,
                          const Binding& binding, TileId tile) {
  return communication_load(compute_usage(app, arch, binding), arch, tile);
}

double tile_cost(const ApplicationGraph& app, const Architecture& arch, const Binding& binding,
                 TileId tile, const TileCostWeights& weights) {
  // The binder calls this once per (actor, candidate tile): one usage pass
  // serves both the memory and the communication load.
  const AllocationUsage usage = compute_usage(app, arch, binding);
  return weights.processing * processing_load(app, arch, binding, tile) +
         weights.memory * memory_load(usage, arch, tile) +
         weights.communication * communication_load(usage, arch, tile);
}

}  // namespace sdfmap
