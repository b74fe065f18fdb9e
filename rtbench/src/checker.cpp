#include "checker.h"

#include <charconv>
#include <cstdio>

namespace rtbench {

namespace {

constexpr std::size_t kMaxErrors = 10;
constexpr std::size_t kMinValueBytes = 32;

// Header: "W<writer>.<seq>.<key>|" or "P<key>|", then filler.
std::string header(const ValueTag& tag) {
  if (tag.writer == ValueTag::kPreload) {
    return "P" + std::to_string(tag.key) + "|";
  }
  return "W" + std::to_string(tag.writer) + "." + std::to_string(tag.seq) +
         "." + std::to_string(tag.key) + "|";
}

// The filler bytes of a tag's value from offset i on: byte i is
// 'a' + (h mod 26 + 7 i) mod 26, with h hashed from the tag. Stepped
// without a division per byte: the generator checks every 1 KiB value it
// reads, and that check should cost it little next to the server's work.
class Filler {
 public:
  Filler(const ValueTag& tag, std::size_t i) {
    const std::uint64_t h = (tag.seq * 0x9e3779b97f4a7c15ull) ^
                            (static_cast<std::uint64_t>(tag.writer) << 32) ^
                            tag.key;
    r_ = static_cast<std::uint32_t>((h % 26 + (i % 26) * 7) % 26);
  }
  std::uint8_t next() {
    const auto c = static_cast<std::uint8_t>('a' + r_);
    r_ += 7;
    if (r_ >= 26) r_ -= 26;
    return c;
  }

 private:
  std::uint32_t r_ = 0;
};

template <typename T>
bool parse_num(const char*& p, const char* end, T& out) {
  auto [next, ec] = std::from_chars(p, end, out);
  if (ec != std::errc() || next == p) return false;
  p = next;
  return true;
}

std::string zx(std::uint64_t packed) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu:%llu",
                static_cast<unsigned long long>(packed >> 32),
                static_cast<unsigned long long>(packed & 0xffffffffu));
  return buf;
}

std::string describe(const ValueTag& t) {
  return t.writer == ValueTag::kPreload
             ? "preload(" + std::to_string(t.key) + ")"
             : "write(" + std::to_string(t.writer) + "#" +
                   std::to_string(t.seq) + ")";
}

}  // namespace

zab::Bytes make_value(const ValueTag& tag, std::size_t bytes) {
  if (bytes < kMinValueBytes) bytes = kMinValueBytes;
  const std::string h = header(tag);
  zab::Bytes v(h.begin(), h.end());
  v.reserve(bytes);
  Filler f(tag, v.size());
  while (v.size() < bytes) v.push_back(f.next());
  return v;
}

std::optional<ValueTag> parse_value(std::span<const std::uint8_t> value) {
  if (value.size() < kMinValueBytes) return std::nullopt;
  const char* p = reinterpret_cast<const char*>(value.data());
  const char* end = p + value.size();
  ValueTag t;
  if (*p == 'P') {
    ++p;
    if (!parse_num(p, end, t.key)) return std::nullopt;
  } else if (*p == 'W') {
    ++p;
    if (!parse_num(p, end, t.writer) || p == end || *p++ != '.' ||
        !parse_num(p, end, t.seq) || p == end || *p++ != '.' ||
        !parse_num(p, end, t.key)) {
      return std::nullopt;
    }
    if (t.writer == ValueTag::kPreload) return std::nullopt;
  } else {
    return std::nullopt;
  }
  if (p == end || *p++ != '|') return std::nullopt;
  const auto start =
      static_cast<std::size_t>(p - reinterpret_cast<const char*>(value.data()));
  Filler f(t, start);
  for (std::size_t i = start; i < value.size(); ++i) {
    if (value[i] != f.next()) return std::nullopt;
  }
  return t;
}

std::string key_path(std::uint32_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "/k%05u", k);
  return buf;
}

Checker::Checker(std::uint32_t writers, std::uint32_t keys)
    : keys_(keys),
      sent_(writers),
      last_ack_zxid_(writers, 0),
      latest_(keys),
      watermarks_() {}

void Checker::fail(std::string msg) {
  ++violations_;
  if (errors_.size() < kMaxErrors) errors_.push_back(std::move(msg));
}

bool Checker::was_written(const ValueTag& tag) const {
  if (tag.key >= keys_) return false;
  if (tag.writer == ValueTag::kPreload) return true;
  if (tag.writer >= sent_.size()) return false;
  const auto& s = sent_[tag.writer];
  return tag.seq < s.size() && s[tag.seq] == tag.key;
}

void Checker::on_write_sent(std::uint32_t writer, std::uint64_t seq,
                            std::uint32_t key) {
  if (writer >= sent_.size()) return fail("write from unknown writer");
  auto& s = sent_[writer];
  // Sequence numbers start at 1 and are dense per writer.
  if (s.size() <= seq) s.resize(seq + 1, UINT32_MAX);
  s[seq] = key;
}

void Checker::on_write_ack(std::uint32_t conn, const ValueTag& tag,
                           std::uint64_t zxid) {
  ++writes_;
  if (conn >= last_ack_zxid_.size()) return fail("ack on unknown connection");
  if (!was_written(tag)) return fail("ack for a write never sent: " + describe(tag));
  if (zxid <= last_ack_zxid_[conn]) {
    fail("conn " + std::to_string(conn) + ": " + describe(tag) +
         " acknowledged at zxid " + zx(zxid) + ", not above the earlier ack " +
         zx(last_ack_zxid_[conn]));
  }
  last_ack_zxid_[conn] = std::max(last_ack_zxid_[conn], zxid);
  Latest& l = latest_[tag.key];
  if (zxid > l.zxid) {
    l.zxid = zxid;
    l.tag = tag;
  }
}

void Checker::on_read(std::uint32_t conn, std::uint32_t key,
                      std::uint64_t fence, std::uint64_t zxid,
                      std::span<const std::uint8_t> value) {
  ++reads_;
  if (zxid < fence) {
    fail("conn " + std::to_string(conn) + ": read of " + key_path(key) +
         " answered at zxid " + zx(zxid) + " below its fence " + zx(fence));
  }
  const auto tag = parse_value(value);
  if (!tag) return fail("read of " + key_path(key) + ": malformed value");
  if (tag->key != key || !was_written(*tag)) {
    fail("read of " + key_path(key) + " returned " + describe(*tag) +
         ", which no write to that path produced");
  }
}

void Checker::on_replica_watermark(std::uint32_t replica, std::uint64_t zxid) {
  if (watermarks_.size() <= replica) watermarks_.resize(replica + 1);
  watermarks_[replica] = zxid;
}

void Checker::on_replica_value(
    std::uint32_t replica, std::uint32_t key,
    std::optional<std::span<const std::uint8_t>> value) {
  ++znodes_;
  if (key >= keys_) return fail("replica value for unknown key");
  const Latest& l = latest_[key];
  const std::string where =
      "replica " + std::to_string(replica) + " " + key_path(key);
  if (!l.tag) {
    if (value) fail(where + " exists but no create was acknowledged");
    return;
  }
  if (!value) return fail(where + " is missing; expected " + describe(*l.tag));
  const auto tag = parse_value(*value);
  if (!tag) return fail(where + " holds a malformed value");
  if (!(*tag == *l.tag)) {
    fail(where + " holds " + describe(*tag) +
         "; the highest acknowledged write is " + describe(*l.tag) + " at " +
         zx(l.zxid));
  }
}

void Checker::finish() {
  std::optional<std::uint64_t> first;
  for (std::size_t r = 0; r < watermarks_.size(); ++r) {
    if (!watermarks_[r]) continue;
    if (!first) {
      first = watermarks_[r];
    } else if (*watermarks_[r] != *first) {
      fail("replicas diverge: last_delivered " + zx(*first) + " vs " +
           zx(*watermarks_[r]) + " on replica " + std::to_string(r));
    }
  }
}

}  // namespace rtbench
