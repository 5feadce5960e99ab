#include "schedule/tree.h"

#include <set>

#include "support/error.h"
#include "support/format.h"

namespace sw::sched {

std::int64_t Extent::evaluate(
    const std::map<std::string, std::int64_t>& params) const {
  if (!param_) return constant_;
  auto it = params.find(*param_);
  SW_CHECK(it != params.end(), strCat("unbound extent parameter '", *param_,
                                      "'"));
  SW_CHECK(it->second > 0, strCat("extent parameter ", *param_, "=",
                                  it->second, " must be positive"));
  // Ceiling division: non-multiple shapes get one extra (partial) tile,
  // whose transfers/compute are clamped at runtime by the edge-tile path.
  return constant_ + (it->second + divisor_ - 1) / divisor_;
}

std::string Extent::toString(bool ceiling) const {
  if (!param_) return strCat(constant_);
  std::string base =
      divisor_ == 1 ? *param_
      : ceiling     ? strCat("(", *param_, " + ", divisor_ - 1, ")/", divisor_)
                    : strCat(*param_, "/", divisor_);
  if (constant_ == 0) return base;
  if (constant_ > 0) return strCat(base, " + ", constant_);
  return strCat(base, " - ", -constant_);
}

ScheduleNode& ScheduleNode::onlyChild() {
  SW_CHECK(children_.size() == 1,
           strCat("expected exactly one child, found ", children_.size()));
  return *children_[0];
}

const ScheduleNode& ScheduleNode::onlyChild() const {
  SW_CHECK(children_.size() == 1,
           strCat("expected exactly one child, found ", children_.size()));
  return *children_[0];
}

void ScheduleNode::cloneChildrenInto(ScheduleNode& target) const {
  for (const NodePtr& child : children_)
    target.appendChild(child->clone());
}

NodePtr DomainNode::clone() const {
  auto copy = std::make_unique<DomainNode>();
  copy->domains = domains;
  cloneChildrenInto(*copy);
  return copy;
}

NodePtr BandNode::clone() const {
  auto copy = std::make_unique<BandNode>();
  copy->members = members;
  copy->permutable = permutable;
  cloneChildrenInto(*copy);
  return copy;
}

NodePtr SequenceNode::clone() const {
  auto copy = std::make_unique<SequenceNode>();
  cloneChildrenInto(*copy);
  return copy;
}

bool FilterNode::selectsStatement(const std::string& name) const {
  for (const FilterElement& e : elements)
    if (e.kind == FilterElement::Kind::kStatement && e.name == name)
      return true;
  return false;
}

NodePtr FilterNode::clone() const {
  auto copy = std::make_unique<FilterNode>();
  copy->elements = elements;
  copy->range = range;
  cloneChildrenInto(*copy);
  return copy;
}

const CopyStmt* ExtensionNode::findCopy(const std::string& name) const {
  for (const CopyStmt& c : copies)
    if (c.name == name) return &c;
  return nullptr;
}

NodePtr ExtensionNode::clone() const {
  auto copy = std::make_unique<ExtensionNode>();
  copy->copies = copies;
  cloneChildrenInto(*copy);
  return copy;
}

NodePtr MarkNode::clone() const {
  auto copy = std::make_unique<MarkNode>();
  copy->label = label;
  copy->compute = compute;
  copy->elementwise = elementwise;
  cloneChildrenInto(*copy);
  return copy;
}

NodePtr LeafNode::clone() const { return std::make_unique<LeafNode>(); }

ScheduleTree::ScheduleTree(NodePtr root) : root_(std::move(root)) {
  SW_CHECK(root_ != nullptr, "schedule tree root is null");
  SW_CHECK(root_->kind() == NodeKind::kDomain,
           "schedule tree root must be a domain node");
}

DomainNode& ScheduleTree::root() { return nodeCast<DomainNode>(*root_); }
const DomainNode& ScheduleTree::root() const {
  return nodeCast<DomainNode>(*root_);
}

ScheduleTree ScheduleTree::clone() const {
  return ScheduleTree(root_->clone());
}

namespace {

const char* filterElementTag(FilterElement::Kind kind) {
  switch (kind) {
    case FilterElement::Kind::kStatement:
      return "";
    case FilterElement::Kind::kCopy:
      return "copy:";
    case FilterElement::Kind::kReplyWait:
      return "wait:";
    case FilterElement::Kind::kSync:
      return "sync";
  }
  return "?";
}

void printNode(const ScheduleNode& node, CodeWriter& w) {
  switch (node.kind()) {
    case NodeKind::kDomain: {
      const auto& domain = nodeCast<DomainNode>(node);
      std::vector<std::string> parts;
      for (const auto& s : domain.domains) parts.push_back(s.toString());
      w.line("DOMAIN: {", strJoin(parts, "; "), "}");
      break;
    }
    case NodeKind::kBand: {
      const auto& band = nodeCast<BandNode>(node);
      std::vector<std::string> parts;
      for (const BandMember& m : band.members) {
        std::string target = m.binding ? *m.binding : m.var;
        std::vector<std::string> perStmt;
        for (const auto& [stmt, expr] : m.exprs)
          perStmt.push_back(strCat(stmt, " -> ", expr.toString()));
        parts.push_back(strCat(target, "[0,", m.extent.toString(), ") = {",
                               strJoin(perStmt, "; "), "}",
                               m.coincident ? " (coincident)" : ""));
      }
      w.line("BAND", band.permutable ? " (permutable)" : "", ": ",
             strJoin(parts, " ; "));
      break;
    }
    case NodeKind::kSequence:
      w.line("SEQUENCE:");
      break;
    case NodeKind::kFilter: {
      const auto& filter = nodeCast<FilterNode>(node);
      std::vector<std::string> parts;
      for (const FilterElement& e : filter.elements)
        parts.push_back(strCat(filterElementTag(e.kind), e.name));
      std::string range;
      if (filter.range)
        range = strCat(" | ", filter.range->var, " in [",
                       filter.range->begin.toString(), ", ",
                       filter.range->end.toString(), ")");
      w.line("FILTER: {", strJoin(parts, ", "), "}", range);
      break;
    }
    case NodeKind::kExtension: {
      const auto& ext = nodeCast<ExtensionNode>(node);
      std::vector<std::string> parts;
      for (const CopyStmt& c : ext.copies) {
        std::string coords =
            strCat(c.array, "[", c.rowStart.toString(), "][",
                   c.colStart.toString(), "] tile ", c.tileRows, "x",
                   c.tileCols);
        parts.push_back(strCat(c.name, " -> ", coords));
      }
      w.line("EXTENSION: [", strJoin(parts, "; "), "]");
      break;
    }
    case NodeKind::kMark: {
      const auto& mark = nodeCast<MarkNode>(node);
      w.line("MARK: \"", mark.label, "\"");
      break;
    }
    case NodeKind::kLeaf:
      w.line("LEAF");
      break;
  }
  w.indent();
  for (const NodePtr& child : node.children()) printNode(*child, w);
  w.dedent();
}

struct Validator {
  std::set<std::string> boundVars;
  std::set<std::string> statements;
  std::vector<const ExtensionNode*> extensionStack;

  void visit(const ScheduleNode& node) {
    switch (node.kind()) {
      case NodeKind::kDomain: {
        const auto& domain = nodeCast<DomainNode>(node);
        SW_CHECK(!domain.domains.empty(), "domain node with no statements");
        for (const auto& s : domain.domains) {
          auto [it, inserted] = statements.insert(s.tupleName());
          (void)it;
          SW_CHECK(inserted,
                   strCat("duplicate statement '", s.tupleName(), "'"));
        }
        SW_CHECK(node.children().size() == 1, "domain must have one child");
        break;
      }
      case NodeKind::kBand: {
        const auto& band = nodeCast<BandNode>(node);
        SW_CHECK(!band.members.empty(), "empty band");
        SW_CHECK(node.children().size() == 1, "band must have one child");
        for (const BandMember& m : band.members) {
          SW_CHECK(!m.var.empty(), "band member without a variable name");
          auto [it, inserted] = boundVars.insert(m.var);
          (void)it;
          SW_CHECK(inserted,
                   strCat("variable '", m.var, "' bound more than once"));
        }
        break;
      }
      case NodeKind::kSequence: {
        SW_CHECK(!node.children().empty(), "empty sequence");
        for (const NodePtr& child : node.children())
          SW_CHECK(child->kind() == NodeKind::kFilter,
                   "sequence children must be filters");
        break;
      }
      case NodeKind::kFilter: {
        const auto& filter = nodeCast<FilterNode>(node);
        SW_CHECK(node.children().size() <= 1,
                 "filter must have at most one child");
        for (const FilterElement& e : filter.elements) {
          if (e.kind == FilterElement::Kind::kCopy) {
            bool found = false;
            for (const ExtensionNode* ext : extensionStack)
              if (ext->findCopy(e.name) != nullptr) found = true;
            SW_CHECK(found, strCat("filter references unknown copy '", e.name,
                                   "'"));
          }
          if (e.kind == FilterElement::Kind::kStatement)
            SW_CHECK(statements.count(e.name) == 1,
                     strCat("filter references unknown statement '", e.name,
                            "'"));
        }
        if (filter.range) {
          bool rebinds = boundVars.count(filter.range->var) != 0;
          SW_CHECK(!rebinds, strCat("range filter rebinds live variable '",
                                    filter.range->var, "'"));
          boundVars.insert(filter.range->var);
        }
        break;
      }
      case NodeKind::kExtension:
        SW_CHECK(node.children().size() == 1,
                 "extension must have one child");
        extensionStack.push_back(&nodeCast<ExtensionNode>(node));
        break;
      case NodeKind::kMark:
        SW_CHECK(node.children().size() <= 1, "mark must have <= 1 child");
        break;
      case NodeKind::kLeaf:
        SW_CHECK(node.children().empty(), "leaf with children");
        break;
    }

    for (const NodePtr& child : node.children()) visit(*child);

    // Restore scopes on exit.
    if (node.kind() == NodeKind::kBand)
      for (const BandMember& m : nodeCast<BandNode>(node).members)
        boundVars.erase(m.var);
    if (node.kind() == NodeKind::kFilter) {
      const auto& filter = nodeCast<FilterNode>(node);
      if (filter.range) boundVars.erase(filter.range->var);
    }
    if (node.kind() == NodeKind::kExtension) extensionStack.pop_back();
  }
};

}  // namespace

std::string ScheduleTree::toString() const {
  CodeWriter w;
  printNode(*root_, w);
  return w.str();
}

void ScheduleTree::validate() const {
  Validator validator;
  validator.visit(*root_);
}

}  // namespace sw::sched
