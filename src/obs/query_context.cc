#include "obs/query_context.h"

namespace lyric {
namespace obs {

namespace {

// The one per-query thread-local (tools/check_lock_discipline keeps it
// so).
thread_local QueryContext* t_context = nullptr;

}  // namespace

QueryContext* QueryContext::Current() { return t_context; }

QueryContextScope::QueryContextScope(QueryContext* context)
    : previous_(t_context) {
  t_context = context;
}

QueryContextScope::~QueryContextScope() { t_context = previous_; }

}  // namespace obs
}  // namespace lyric
