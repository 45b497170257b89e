#include "plan/query_block.h"

#include <sstream>

namespace nestra {

int QueryBlock::NumBlocks() const {
  int n = 1;
  for (const auto& c : children) n += c->NumBlocks();
  return n;
}

int QueryBlock::NestingDepth() const {
  int max_child = -1;
  for (const auto& c : children) {
    max_child = std::max(max_child, c->NestingDepth());
  }
  return max_child + 1;
}

bool QueryBlock::AllLinksPositive() const {
  for (const auto& c : children) {
    if (!c->LinkIsPositive()) return false;
    if (!c->AllLinksPositive()) return false;
  }
  return true;
}

LinkingPredicate QueryBlock::MakeLinkPredicate(
    const std::string& group_name) const {
  LinkingPredicate p =
      is_aggregate_link
          ? MakeAggregateLinkingPredicate(agg, link_cmp, linking_attr,
                                          group_name, linked_attr, key_attr)
          : MakeLinkingPredicate(link_op, link_cmp, linking_attr, group_name,
                                 linked_attr, key_attr);
  p.linking_is_const = linking_is_const;
  p.linking_const = linking_const;
  return p;
}

bool QueryBlock::IsLinear() const {
  if (children.size() > 1) return false;
  for (const auto& c : children) {
    if (!c->IsLinear()) return false;
  }
  return true;
}

bool QueryBlock::IsLinearCorrelated() const {
  if (!IsLinear()) return false;
  // Every non-root block must be correlated only to its parent.
  const QueryBlock* parent = this;
  const QueryBlock* node = children.empty() ? nullptr : children[0].get();
  while (node != nullptr) {
    for (int ref : node->correlated_block_ids) {
      if (ref != parent->id) return false;
    }
    parent = node;
    node = node->children.empty() ? nullptr : node->children[0].get();
  }
  return true;
}

std::string QueryBlock::ToString(int indent) const {
  std::ostringstream oss;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  oss << pad << "Block " << id << ": FROM";
  for (const TableRef& t : tables) {
    oss << " " << t.table;
    if (t.alias != t.table) oss << " AS " << t.alias;
  }
  oss << "\n";
  if (IsRoot()) {
    oss << pad << "  select:";
    for (const std::string& s : select_list) oss << " " << s;
    if (distinct) oss << " (distinct)";
    oss << "\n";
  } else {
    oss << pad << "  link: " << linking_attr << " "
        << (link_op == LinkOp::kSome || link_op == LinkOp::kAll
                ? std::string(CmpOpToString(link_cmp)) + " "
                : std::string())
        << LinkOpToString(link_op) << " (" << linked_attr << ")\n";
  }
  if (local_pred != nullptr) {
    oss << pad << "  local: " << local_pred->ToString() << "\n";
  }
  for (const ExprPtr& c : correlated_preds) {
    oss << pad << "  correlated: " << c->ToString() << "\n";
  }
  oss << pad << "  key: " << key_attr << "\n";
  oss << pad << "  carry " << carried.size() << "/" << attributes.size()
      << ":";
  for (size_t i = 0; i < carried.size(); ++i) {
    oss << (i == 0 ? " " : ", ") << carried[i];
  }
  oss << "\n";
  for (const auto& c : children) oss << c->ToString(indent + 1);
  return oss.str();
}

}  // namespace nestra
