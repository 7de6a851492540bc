// Fixture: public Column accessors bypassing the probe sinks. The
// companion allowlist (probe_allowlist_fixture.txt) admits Reserve
// (capacity-only) and carries one deliberately stale entry.
#include <cstdint>
#include <vector>

void ProbeRead(int table, int col);

class Column {
 public:
  int64_t GetRaw(int64_t row) const { return ints_[static_cast<size_t>(row)]; }  // aspect-lint-expect: probe-missing

  int64_t GetProbed(int64_t row) const {
    ProbeRead(probe_table_, probe_col_);
    return ints_[static_cast<size_t>(row)];
  }

  void Reserve(int64_t n);  // allowlisted: capacity only

  int probe_table() const { return probe_table_; }

 private:
  std::vector<int64_t> ints_;
  std::vector<uint8_t> state_;
  int probe_table_ = -1;
  int probe_col_ = -1;
};

void Column::Reserve(int64_t n) {
  ints_.reserve(static_cast<size_t>(n));
  state_.reserve(static_cast<size_t>(n));
}
