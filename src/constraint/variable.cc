#include "constraint/variable.h"

#include <cassert>
#include <deque>
#include <unordered_map>

#include "util/sync.h"

namespace lyric {

namespace {

// Thread-safe: concurrent queries intern variables from their own
// threads. Names live in a deque so the references handed out by Name()
// stay stable across later interning. Reads (Name/Count) vastly outnumber
// writes once a workload warms up, hence the reader/writer lock.
struct Interner {
  sync::SharedMutex mu{sync::LockRank::kVarInterner, "var_interner"};
  std::unordered_map<std::string, VarId> ids LYRIC_GUARDED_BY(mu);
  std::deque<std::string> names LYRIC_GUARDED_BY(mu);
  uint64_t fresh_counter LYRIC_GUARDED_BY(mu) = 0;
};

Interner& GetInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

VarId InternLocked(Interner& in, const std::string& name)
    LYRIC_REQUIRES(in.mu) {
  auto it = in.ids.find(name);
  if (it != in.ids.end()) return it->second;
  VarId id = static_cast<VarId>(in.names.size());
  in.names.push_back(name);
  in.ids.emplace(name, id);
  return id;
}

}  // namespace

VarId Variable::Intern(const std::string& name) {
  Interner& in = GetInterner();
  sync::WriterMutexLock lock(in.mu);
  return InternLocked(in, name);
}

const std::string& Variable::Name(VarId id) {
  Interner& in = GetInterner();
  sync::ReaderMutexLock lock(in.mu);
  assert(id < in.names.size());
  return in.names[id];
}

VarId Variable::Fresh(const std::string& hint) {
  Interner& in = GetInterner();
  sync::WriterMutexLock lock(in.mu);
  for (;;) {
    std::string candidate = hint + "$" + std::to_string(in.fresh_counter++);
    if (in.ids.find(candidate) == in.ids.end()) {
      return InternLocked(in, candidate);
    }
  }
}

size_t Variable::Count() {
  Interner& in = GetInterner();
  sync::ReaderMutexLock lock(in.mu);
  return in.names.size();
}

std::string VarSetToString(const VarSet& vars) {
  std::string out = "{";
  bool first = true;
  for (VarId v : vars) {
    if (!first) out += ", ";
    first = false;
    out += Variable::Name(v);
  }
  out += "}";
  return out;
}

}  // namespace lyric
