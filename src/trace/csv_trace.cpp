#include "trace/csv_trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/csv.hpp"
#include "common/string_util.hpp"

namespace megh {

void save_trace_csv(const TraceTable& trace,
                    const std::filesystem::path& path) {
  CsvWriter w(path);
  w.comment("megh trace: rows = VMs, columns = steps, utilization in [0,1]");
  for (int vm = 0; vm < trace.num_vms(); ++vm) {
    std::vector<double> row;
    row.reserve(static_cast<std::size_t>(trace.num_steps()));
    for (int s = 0; s < trace.num_steps(); ++s) row.push_back(trace.at(vm, s));
    w.row(row);
  }
}

TraceTable load_trace_csv(const std::filesystem::path& path) {
  const CsvTable csv = read_csv(path, /*has_header=*/false);
  MEGH_REQUIRE(!csv.rows.empty(), "trace CSV has no rows: " + path.string());
  const int num_vms = static_cast<int>(csv.rows.size());
  const int num_steps = static_cast<int>(csv.rows[0].size());
  double max_value = 0.0;
  for (const auto& row : csv.rows) {
    for (double v : row) max_value = std::max(max_value, v);
  }
  const double scale = max_value > 1.5 ? 0.01 : 1.0;  // percent vs fraction
  TraceTable trace(num_vms, num_steps);
  for (int vm = 0; vm < num_vms; ++vm) {
    for (int s = 0; s < num_steps; ++s) {
      const double v = csv.rows[static_cast<std::size_t>(vm)]
                               [static_cast<std::size_t>(s)] *
                       scale;
      MEGH_REQUIRE(v >= 0.0 && v <= 1.0 + 1e-9,
                   "trace value out of range in " + path.string());
      trace.set(vm, s, std::clamp(v, 0.0, 1.0));
    }
  }
  return trace;
}

TraceTable load_planetlab_directory(const std::filesystem::path& dir) {
  MEGH_REQUIRE(std::filesystem::is_directory(dir),
               "not a directory: " + dir.string());
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  MEGH_REQUIRE(!files.empty(), "no trace files in " + dir.string());
  std::sort(files.begin(), files.end());

  std::vector<std::vector<double>> series;
  std::size_t min_len = static_cast<std::size_t>(-1);
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) throw IoError("cannot open trace file: " + file.string());
    std::vector<double> s;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const auto t = trim(line);
      if (t.empty()) continue;
      const std::string where = file.string() + ":" + std::to_string(line_no);
      const double v = parse_double(t, where);
      if (!std::isfinite(v)) {
        throw IoError("non-finite utilization '" + std::string(t) + "' in " +
                      where);
      }
      s.push_back(v / 100.0);
    }
    MEGH_REQUIRE(!s.empty(), "empty trace file: " + file.string());
    min_len = std::min(min_len, s.size());
    series.push_back(std::move(s));
  }
  TraceTable trace(static_cast<int>(series.size()),
                   static_cast<int>(min_len));
  for (int vm = 0; vm < trace.num_vms(); ++vm) {
    for (int s = 0; s < trace.num_steps(); ++s) {
      trace.set(vm, s,
                std::clamp(series[static_cast<std::size_t>(vm)]
                                 [static_cast<std::size_t>(s)],
                           0.0, 1.0));
    }
  }
  return trace;
}

}  // namespace megh
