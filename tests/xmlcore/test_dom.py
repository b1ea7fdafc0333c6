"""Tests for DOM node behaviour and tree mutation rules."""

import pytest

from repro.xmlcore import (
    Comment,
    Document,
    Element,
    QName,
    Text,
    XML_NAMESPACE,
    XmlTreeError,
    deep_copy,
    iter_tree,
    parse,
    parse_element,
)


class TestMutation:
    def test_append_sets_parent(self):
        parent = Element("m")
        child = Element("p")
        parent.append(child)
        assert child.parent is parent

    def test_detach_clears_parent(self):
        parent = Element("m")
        child = parent.subelement("p")
        child.detach()
        assert child.parent is None
        assert parent.children == ()

    def test_insert_at_position(self):
        parent = Element("m")
        parent.subelement("a")
        parent.subelement("c")
        parent.insert(1, Element("b"))
        assert [el.name.local for el in parent.child_elements()] == ["a", "b", "c"]

    def test_reparenting_requires_detach(self):
        one, two = Element("one"), Element("two")
        child = one.subelement("c")
        with pytest.raises(XmlTreeError):
            two.append(child)

    def test_cycle_rejected(self):
        outer = Element("outer")
        inner = outer.subelement("inner")
        with pytest.raises(XmlTreeError):
            inner.append(outer)

    def test_self_append_rejected(self):
        el = Element("a")
        with pytest.raises(XmlTreeError):
            el.append(el)

    def test_document_cannot_be_a_child(self):
        with pytest.raises(XmlTreeError):
            Element("a").append(Document())

    def test_document_rejects_second_root(self):
        doc = Document()
        doc.append(Element("a"))
        with pytest.raises(XmlTreeError):
            doc.append(Element("b"))

    def test_document_rejects_meaningful_text(self):
        doc = Document()
        with pytest.raises(XmlTreeError):
            doc.append(Text("hello"))

    def test_document_accepts_whitespace_text(self):
        doc = Document()
        doc.append(Text("  \n"))
        doc.append(Element("a"))
        assert doc.root_element.name.local == "a"

    def test_remove_foreign_node_rejected(self):
        parent, stranger = Element("a"), Element("b")
        with pytest.raises(XmlTreeError):
            parent.remove(stranger)

    def test_clear_children(self):
        parent = Element("m")
        parent.subelement("a")
        parent.subelement("b")
        parent.clear_children()
        assert parent.children == ()


class TestAttributes:
    def test_set_and_get_by_local_name(self):
        el = Element("a")
        el.set("id", "guitar")
        assert el.get("id") == "guitar"

    def test_get_missing_returns_default(self):
        assert Element("a").get("nope", "dflt") == "dflt"

    def test_get_by_clark_notation(self):
        el = Element("a")
        el.set(QName("urn:x", "attr"), "v")
        assert el.get("{urn:x}attr") == "v"

    def test_local_name_lookup_finds_namespaced_attribute(self):
        el = Element("a")
        el.set(QName("urn:x", "href"), "v")
        assert el.get("href") == "v"

    def test_local_lookup_prefers_no_namespace(self):
        el = Element("a")
        el.set(QName("urn:x", "id"), "namespaced")
        el.set("id", "plain")
        assert el.get("id") == "plain"

    def test_delete_attribute(self):
        el = Element("a", {"id": "x"})
        el.delete("id")
        assert not el.has("id")

    def test_values_coerced_to_str(self):
        el = Element("a")
        el.set("n", 7)
        assert el.get("n") == "7"


class TestIds:
    def test_xml_id_wins_over_plain_id(self):
        el = parse_element('<a xml:id="canonical" id="plain"/>')
        assert el.get_id() == "canonical"

    def test_element_by_id_searches_subtree(self):
        doc = parse('<m><p id="guitar"/><p id="guernica"/></m>')
        assert doc.element_by_id("guernica").get("id") == "guernica"

    def test_element_by_id_missing_returns_none(self):
        doc = parse("<m/>")
        assert doc.element_by_id("nope") is None


class TestTraversal:
    def test_iter_filters_by_local_name(self):
        root = parse_element("<m><p/><q><p/></q></m>")
        assert len(root.findall("p")) == 2

    def test_iter_with_qname_is_exact(self):
        root = parse_element('<m xmlns:x="urn:x"><x:p/><p/></m>')
        assert len(root.findall(QName("urn:x", "p"))) == 1

    def test_iter_is_pre_order_document_order(self):
        root = parse_element("<a><b><c/><d><e/></d></b>t<f><g/></f><h/></a>")
        names = [el.name.local for el in root.iter()]
        assert names == list("bcdefgh")
        assert names == [
            node.name.local
            for node in iter_tree(root)
            if isinstance(node, Element) and node is not root
        ]

    def test_iter_sees_children_added_to_a_yielded_element(self):
        root = parse_element("<a><b/><c/></a>")
        names = []
        for el in root.iter():
            names.append(el.name.local)
            if el.name.local == "b":
                el.append(Element("x"))
        assert names == ["b", "x", "c"]

    def test_ancestors_order(self):
        root = parse_element("<a><b><c/></b></a>")
        c = root.find("c")
        names = [el.name.local for el in c.ancestors() if isinstance(el, Element)]
        assert names == ["b", "a"]

    def test_ancestors_include_document(self):
        doc = parse("<a><b/></a>")
        b = doc.root_element.find("b")
        assert list(b.ancestors())[-1] is doc

    def test_document_property(self):
        doc = parse("<a><b/></a>")
        assert doc.root_element.find("b").document() is doc

    def test_detached_node_has_no_document(self):
        assert Element("a").document() is None

    def test_element_index_counts_elements_only(self):
        root = parse_element("<m>text<a/>more<b/></m>")
        assert root.find("a").element_index() == 1
        assert root.find("b").element_index() == 2

    def test_iter_tree_visits_everything(self):
        doc = parse("<a>t<b><!--c--></b></a>")
        kinds = [type(node).__name__ for node in iter_tree(doc)]
        assert kinds == ["Document", "Element", "Text", "Element", "Comment"]

    def test_text_content_skips_comments(self):
        root = parse_element("<a>one<!--no-->two</a>")
        assert root.text_content() == "onetwo"


class TestNamespaceScope:
    def test_prefix_resolution_walks_ancestors(self):
        root = parse_element('<m xmlns:x="urn:x"><inner/></m>')
        inner = root.find("inner")
        assert inner.namespace_for_prefix("x") == "urn:x"

    def test_shadowed_prefix_not_reported(self):
        root = parse_element('<m xmlns:x="urn:outer"><inner xmlns:x="urn:inner"/></m>')
        inner = root.find("inner")
        assert inner.namespace_for_prefix("x") == "urn:inner"
        assert inner.prefix_for_namespace("urn:outer") is None

    def test_xml_prefix_always_resolves(self):
        assert Element("a").namespace_for_prefix("xml") == XML_NAMESPACE


class TestDeepCopy:
    def test_copy_is_detached_and_equal_shaped(self):
        root = parse_element('<m id="1"><p id="2">text</p><!--c--></m>')
        clone = deep_copy(root)
        assert clone.parent is None
        assert clone.get("id") == "1"
        assert clone.find("p").text_content() == "text"

    def test_copy_is_independent(self):
        root = parse_element("<m><p/></m>")
        clone = deep_copy(root)
        clone.find("p").set("touched", "yes")
        assert not root.find("p").has("touched")

    def test_copy_preserves_namespace_declarations(self):
        root = parse_element('<m xmlns:x="urn:x"><x:p/></m>')
        clone = deep_copy(root)
        assert clone.namespaces.get("x") == "urn:x"

    def test_copy_document(self):
        doc = parse('<?xml version="1.0" encoding="latin-1"?><a/>')
        clone = deep_copy(doc)
        assert isinstance(clone, Document)
        assert clone.encoding == "latin-1"
