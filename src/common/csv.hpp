// CSV export for experiment results, so figure series can be fed straight
// into plotting tools (examples/export_figures writes one file per figure).
//
// RFC-4180-ish quoting: fields containing comma, quote or newline are
// quoted, embedded quotes doubled.
#pragma once

#include <string>
#include <vector>

namespace updp2p::common {

/// Writes `content` rows to `<directory>/<name>.csv`; returns false (and
/// leaves no partial file behind) when the directory is not writable.
bool write_csv_file(const std::string& directory, const std::string& name,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace updp2p::common
