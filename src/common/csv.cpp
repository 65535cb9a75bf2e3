#include "common/csv.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace updp2p::common {

namespace {

std::string escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

bool write_csv_file(const std::string& directory, const std::string& name,
                    const std::vector<std::vector<std::string>>& rows) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return false;
  const std::string path = directory + "/" + name + ".csv";
  std::ostringstream buffer;
  for (const auto& cells : rows) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) buffer << ',';
      buffer << escape(cells[i]);
    }
    buffer << '\n';
  }

  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << buffer.str();
  file.close();
  if (!file) {
    std::remove(path.c_str());
    return false;
  }
  return true;
}

}  // namespace updp2p::common
