#include "compact/depdag.h"

#include <map>
#include <stdexcept>

namespace record::compact {

namespace {

void add_edge(Region& region, DepEdge e) {
  if (e.from >= e.to)
    throw std::logic_error("dependence edge does not run forward");
  region.edges.push_back(e);
}

void add_region_edges(Region& region) {
  // For every location: last writer and readers since that write.
  struct LocState {
    std::ptrdiff_t last_writer = -1;
    std::vector<std::size_t> readers_since_write;
  };
  std::map<std::string, LocState> locs;

  for (std::size_t i = 0; i < region.rts.size(); ++i) {
    const select::SelectedRT& rt = *region.rts[i];
    for (const std::string& r : rt.reads) {
      LocState& st = locs[r];
      if (st.last_writer >= 0)
        add_edge(region, DepEdge{static_cast<std::size_t>(st.last_writer),
                                 i, 1});  // RAW
      st.readers_since_write.push_back(i);
    }
    if (!rt.dest.empty()) {
      LocState& st = locs[rt.dest];
      if (st.last_writer >= 0)
        add_edge(region, DepEdge{static_cast<std::size_t>(st.last_writer),
                                 i, 1});  // WAW
      for (std::size_t reader : st.readers_since_write)
        if (reader != i)
          add_edge(region, DepEdge{reader, i, 0});  // WAR
      st.last_writer = static_cast<std::ptrdiff_t>(i);
      st.readers_since_write.clear();
    }
  }

  // A branch terminates the region: everything must be scheduled no later
  // than the branch's cycle.
  if (region.ends_with_branch && !region.rts.empty()) {
    std::size_t b = region.rts.size() - 1;
    for (std::size_t i = 0; i < b; ++i)
      add_edge(region, DepEdge{i, b, 0, /*control=*/true});
  }
}

}  // namespace

std::vector<Region> build_regions(const select::SelectionResult& sel) {
  std::vector<Region> regions;
  regions.emplace_back();

  auto close_region = [&regions](bool branch_end) {
    regions.back().ends_with_branch = branch_end;
    add_region_edges(regions.back());
    regions.emplace_back();
  };

  for (const select::StmtCode& sc : sel.stmts) {
    if (sc.is_label) {
      if (!regions.back().rts.empty() || !regions.back().label.empty())
        close_region(false);
      regions.back().label = sc.label;
      continue;
    }
    bool has_branch = false;
    for (const select::SelectedRT& rt : sc.rts) {
      regions.back().rts.push_back(&rt);
      if (rt.is_branch) has_branch = true;
    }
    if (has_branch) close_region(true);
  }
  // Close the trailing region.
  regions.back().ends_with_branch = false;
  add_region_edges(regions.back());
  if (regions.back().rts.empty() && regions.back().label.empty())
    regions.pop_back();
  return regions;
}

}  // namespace record::compact
