#include "check.h"

#include "common.h"

namespace perfbench {

using namespace sdfmap;

std::string allocation_digest(const ApplicationGraph& app, const StrategyResult& result) {
  Digest d;
  d.add(app.name()).add(result.success ? "ok" : "failed");
  d.add(failure_kind_name(result.failure_kind));
  if (!result.success) return d.hex();
  for (std::uint32_t a = 0; a < result.binding.num_actors(); ++a) {
    const auto tile = result.binding.tile_of(ActorId{a});
    d.add(tile ? static_cast<std::int64_t>(tile->value) : -1);
  }
  for (const StaticOrderSchedule& s : result.schedules) d.add(s.to_string(app.sdf()));
  for (const std::int64_t slice : result.slices) d.add(slice);
  d.add(result.achieved_throughput.to_string());
  d.add(static_cast<std::int64_t>(result.throughput_checks));
  return d.hex();
}

IndependentPlatform::IndependentPlatform(const Architecture& arch) : arch_(arch) {
  for (const Tile& t : arch.tiles()) {
    free_.push_back(Free{t.wheel_size - t.occupied_wheel, t.memory, t.max_connections,
                         t.bandwidth_in, t.bandwidth_out});
  }
}

std::optional<std::string> IndependentPlatform::admit(const ApplicationGraph& app,
                                                      const StrategyResult& result) {
  if (!result.success) return "not a successful allocation";
  const Graph& g = app.sdf();
  const std::size_t tiles = arch_.num_tiles();
  if (result.slices.size() != tiles || result.schedules.size() != tiles) {
    return "slice or schedule vector does not cover the platform";
  }
  if (result.binding.num_actors() != g.num_actors()) return "binding size mismatch";

  std::vector<Free> claim(tiles);
  std::vector<bool> hosts(tiles, false);
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    const auto tile = result.binding.tile_of(ActorId{a});
    if (!tile || tile->value >= tiles) return "actor " + g.actor(ActorId{a}).name + " unbound";
    const auto& req = app.requirement(ActorId{a}, arch_.tile(*tile).proc_type);
    if (!req) return "actor " + g.actor(ActorId{a}).name + " on a tile it cannot run on";
    claim[tile->value].memory += req->memory;
    hosts[tile->value] = true;
  }
  for (std::uint32_t c = 0; c < g.num_channels(); ++c) {
    const Channel& ch = g.channel(ChannelId{c});
    if (ch.src == ch.dst) continue;
    const EdgeRequirement& req = app.edge_requirement(ChannelId{c});
    const std::uint32_t src = result.binding.tile_of(ch.src)->value;
    const std::uint32_t dst = result.binding.tile_of(ch.dst)->value;
    if (src == dst) {
      claim[src].memory += req.alpha_tile * req.token_size;
      continue;
    }
    if (!arch_.find_connection(TileId{src}, TileId{dst})) {
      return "channel " + ch.name + " crosses tiles without a connection";
    }
    claim[src].memory += req.alpha_src * req.token_size;
    claim[dst].memory += req.alpha_dst * req.token_size;
    claim[src].connections += 1;
    claim[dst].connections += 1;
    claim[src].bandwidth_out += req.bandwidth;
    claim[dst].bandwidth_in += req.bandwidth;
  }

  for (std::size_t t = 0; t < tiles; ++t) {
    const std::int64_t slice = result.slices[t];
    const std::string& name = arch_.tile(TileId{static_cast<std::uint32_t>(t)}).name;
    if (hosts[t] ? slice < 1 : slice != 0) return "tile " + name + ": bad slice";
    claim[t].wheel = slice;
    const Free& f = free_[t];
    const Free& c = claim[t];
    if (c.wheel > f.wheel || c.memory > f.memory || c.connections > f.connections ||
        c.bandwidth_in > f.bandwidth_in || c.bandwidth_out > f.bandwidth_out) {
      return "tile " + name + ": allocation exceeds the free resources";
    }
    if (t < result.usage.size()) {
      const TileUsage& u = result.usage[t];
      if (u.time_slice != c.wheel || u.memory != c.memory || u.connections != c.connections ||
          u.bandwidth_in != c.bandwidth_in || u.bandwidth_out != c.bandwidth_out) {
        return "tile " + name + ": reported usage differs from the recomputed claim";
      }
    } else {
      return "usage report does not cover the platform";
    }
  }
  if (result.achieved_throughput < app.throughput_constraint()) {
    return "achieved throughput " + result.achieved_throughput.to_string() +
           " below the constraint " + app.throughput_constraint().to_string();
  }

  for (std::size_t t = 0; t < tiles; ++t) {
    free_[t].wheel -= claim[t].wheel;
    free_[t].memory -= claim[t].memory;
    free_[t].connections -= claim[t].connections;
    free_[t].bandwidth_in -= claim[t].bandwidth_in;
    free_[t].bandwidth_out -= claim[t].bandwidth_out;
  }
  return std::nullopt;
}

}  // namespace perfbench
